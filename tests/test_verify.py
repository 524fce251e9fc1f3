import json

import numpy as np
import pytest
from scipy.linalg import eigh

import hho.smoothing
import hho.system
import hho.verify
from conftest import jittered_square, single_triangle_mesh
from hho.cli import main
from hho.local_ops import HHOSpace, assemble_bilinear
from hho.mesh import SimplicialMesh, build_lshape, build_unit_square
from hho.system import SolverError, assemble, solve
from hho.verify import (
    SHIFT_GAP,
    TOLERANCES,
    _local_coercivity_bound,
    _min_eigenvalue,
    run_verification,
)


def _norm_matrix(space):
    return assemble_bilinear(space, space.hho_norm_blocks())


def _dense_min_eigenvalue(system):
    return eigh(system.full_matrix.toarray(),
                _norm_matrix(system.space).toarray(),
                eigvals_only=True, subset_by_index=[0, 0])[0]


def _stretched_square(n, ar):
    """build_unit_square(n) with y divided by ar: cells of aspect ratio ar."""
    mesh = build_unit_square(n)
    return SimplicialMesh(mesh.vertices / [1.0, ar], mesh.cells)


def _raise(*args, **kwargs):
    raise AssertionError("the dense eigensolve ran")


# every (p, n) of the default suite, and a jittered mesh at the top degree
@pytest.mark.parametrize("p, mesh", [
    *((p, build_unit_square(n)) for p in (0, 1, 2) for n in (2, 4, 8)),
    (3, jittered_square(4)),
], ids=[*(f"p{p}-n{n}" for p in (0, 1, 2) for n in (2, 4, 8)), "p3-jittered4"])
def test_min_eigenvalue_matches_dense_oracle(p, mesh):
    system = assemble(HHOSpace(mesh, p))
    want = _dense_min_eigenvalue(system)
    assert want > 0.0
    assert _min_eigenvalue(system) == pytest.approx(want, rel=1e-12)


# the stretched mesh is left out: its p = 3 Lanczos value differs from the
# dense one by 5e-11 through the conditioning of the stretched stiffness
@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("make_mesh", [
    single_triangle_mesh, lambda: build_unit_square(1), lambda: build_lshape(2),
], ids=["single", "square1", "lshape2"])
def test_min_eigenvalue_matches_dense_oracle_on_small_meshes(make_mesh, p):
    # the single triangle at p = 0 has one dof, too few for ARPACK
    system = assemble(HHOSpace(make_mesh(), p))
    want = _dense_min_eigenvalue(system)
    assert want > 0.0
    assert _min_eigenvalue(system) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p, n, cell", [(0, 2, 0), (2, 8, 17)])
def test_min_eigenvalue_of_indefinite_matrix_is_exact(monkeypatch, p, n, cell):
    # one negated local block makes A indefinite. The local bound is then
    # negative, and the certificate holds at the shift below it: the value
    # must be the smallest eigenvalue (negative), not the one nearest 0, and
    # Lanczos must give it, not the dense solve. The cell's J^{-1} is moved
    # by one unit in the last place, which gives it a class of its own, and
    # the block of that class is negated where every reader forms the
    # blocks, in class_matrices, so the condensation, the assembled matrix
    # and the local bound all see it
    mesh = build_unit_square(n)
    jinv = mesh.inverse_jacobians
    jinv[cell, 0, 0] = np.nextafter(jinv[cell, 0, 0], np.inf)
    space = HHOSpace(mesh, p)
    own = space.cell_class[cell]
    assert np.flatnonzero(space.cell_class == own).tolist() == [cell]
    class_matrices = space.class_matrices

    def planted(classes):
        blocks = class_matrices(classes)
        blocks[np.arange(len(space.class_cells))[classes] == own] *= -1.0
        return blocks

    monkeypatch.setattr(space, "class_matrices", planted)
    system = assemble(space)
    want = _dense_min_eigenvalue(system)
    assert want < 0.0
    monkeypatch.setattr(hho.verify.dla, "eigh", _raise)
    assert _min_eigenvalue(system) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("make_mesh", [
    *(lambda n=n: build_unit_square(n) for n in (2, 4, 8)),
    lambda: jittered_square(4), lambda: build_lshape(2), single_triangle_mesh,
    lambda: _stretched_square(4, 50.0),
], ids=["n2", "n4", "n8", "jittered4", "lshape2", "single", "stretched50"])
def test_local_bound_is_below_the_smallest_eigenvalue(make_mesh, p):
    space = HHOSpace(make_mesh(), p)
    want = _dense_min_eigenvalue(assemble(space))
    bound = _local_coercivity_bound(space, space.local_matrices(),
                                    space.hho_norm_blocks())
    assert bound <= want * (1.0 + 1e-12)
    if p == 0:
        # the bound is attained (on the unit-square grids every eigenvalue
        # of (A, H) is 1)
        assert bound == pytest.approx(want, rel=1e-12)


def test_bound_above_the_smallest_eigenvalue_falls_back_to_dense(monkeypatch):
    # a shift above lambda_min leaves A - sigma H indefinite: the Cholesky
    # certificate must fail, and the dense solve give the exact value
    space = HHOSpace(build_unit_square(4), 1)
    system = assemble(space)
    want = _dense_min_eigenvalue(system)
    monkeypatch.setattr(hho.verify, "_local_coercivity_bound",
                        lambda space, local_blocks, norm_blocks: 1.5 * want)
    dense = []
    eigh_ = hho.verify.dla.eigh
    monkeypatch.setattr(hho.verify.dla, "eigh",
                        lambda *a, **kw: dense.append(1) or eigh_(*a, **kw))
    assert _min_eigenvalue(system) == pytest.approx(want, rel=1e-12)
    assert len(dense) == 1


def test_coercivity_check_factors_only_the_shifted_matrix(monkeypatch):
    # one tree factor is formed, of the system condensed at the shift, and
    # no factor of the system itself; the shifted solve inverts the
    # assembled A - sigma H
    factored, shifted = [], []
    face_factor = hho.system.FaceFactor
    monkeypatch.setattr(
        hho.system, "FaceFactor",
        lambda space, schur, tree: factored.append(schur)
        or face_factor(space, schur, tree),
    )
    assemble_ = hho.verify.assemble
    monkeypatch.setattr(
        hho.verify, "assemble",
        lambda space, shift=0.0:
        shifted.append((shift, assemble_(space, shift))) or shifted[-1][1],
    )
    monkeypatch.setattr(hho.verify.dla, "eigh", _raise)
    space = HHOSpace(build_unit_square(4), 1)
    system = assemble(space)
    _min_eigenvalue(system)
    bound = _local_coercivity_bound(space, space.local_matrices(),
                                    space.hho_norm_blocks())
    [(sigma, shifted)] = shifted
    assert sigma == bound - SHIFT_GAP * abs(bound)
    assert len(factored) == 1 and factored[0] is shifted.schur
    assert "face_factor" not in vars(system)
    M = system.full_matrix - sigma * _norm_matrix(space)
    b = np.random.default_rng(1).standard_normal(space.num_dofs)
    x = solve(shifted, b)
    assert np.abs(M @ x - b).max() <= 1e-10 * np.abs(b).max()


@pytest.mark.parametrize("where", ["cell-block", "schur-complement"])
def test_shift_that_fails_the_cholesky_certificate_falls_back_to_dense(
        monkeypatch, where):
    # a shift above lambda_min leaves A - sigma H indefinite. Above the
    # smallest eigenvalue of a class's cell pencil (A_tt, H_tt) as well,
    # that class's (A - sigma H)_tt has no Cholesky factor; between the
    # two, the cell blocks have one and the face factor of the shifted
    # Schur complement fails. Either way the dense solve gives the value
    space = HHOSpace(build_unit_square(4), 1)
    system = assemble(space)
    want = _dense_min_eigenvalue(system)
    classes, nc = np.arange(len(space.class_cells)), space.nc
    A_tt = space.class_matrices(classes)[:, :nc, :nc]
    H_tt = space.class_norm_blocks(classes)[:, :nc, :nc]
    cell_min = min(eigh(a, h, eigvals_only=True)[0] for a, h in zip(A_tt, H_tt))
    assert 0.0 < want < cell_min
    sigma = 1.5 * cell_min if where == "cell-block" else 0.5 * (want + cell_min)
    shifted = assemble(space, shift=sigma)
    if where == "cell-block":
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(shifted.A_tt)
    else:
        np.linalg.cholesky(shifted.A_tt)
        with pytest.raises(SolverError):
            shifted.face_factor
    monkeypatch.setattr(hho.verify, "_local_coercivity_bound",
                        lambda space, local_blocks, norm_blocks:
                        sigma / (1.0 - SHIFT_GAP))
    dense = []
    eigh_ = hho.verify.dla.eigh
    monkeypatch.setattr(hho.verify.dla, "eigh",
                        lambda *a, **kw: dense.append(1) or eigh_(*a, **kw))
    assert _min_eigenvalue(system) == pytest.approx(want, rel=1e-12)
    assert len(dense) == 1


def _scale_first(system, table):
    """Scale class 0's `table`, or the first front's stored L21 of the face
    factor, by 1 + 1e-6."""
    if table == "L21":
        L21 = system.face_factor.batches[0][3][0]
        assert np.abs(L21).max() > 0.0
        L21 *= 1.0 + 1e-6
    else:
        getattr(system, table)[0] *= 1.0 + 1e-6


@pytest.mark.parametrize("p, n", [(1, 4), (3, 2)])
@pytest.mark.parametrize("table", ["schur", "elim", "A_tt", "L21"])
def test_condensation_check_sees_a_planted_defect(monkeypatch, table, p, n):
    # the condensed solve's residual in the uncondensed system reads a
    # relative defect of 1e-6 in any table the condensed solve reads
    assemble_ = hho.verify.assemble

    def planted(space, shift=0.0):
        system = assemble_(space, shift)
        if not shift:
            _scale_first(system, table)
        return system

    monkeypatch.setattr(hho.verify, "assemble", planted)
    report = run_verification(degrees=[p], resolutions=[n], random_fields=2,
                              variants=("mean",))
    [check] = [c for c in report["checks"] if c["name"] == "condensation"]
    assert check["residual"] >= 1e3 * TOLERANCES["condensation"]
    assert not check["passed"]


def test_default_suite_never_takes_the_dense_eigensolve(monkeypatch):
    monkeypatch.setattr(hho.verify.dla, "eigh", _raise)
    assert run_verification(random_fields=2)["passed"]


def test_suite_forms_no_smoother_matrix(monkeypatch):
    # conformity and orthogonality are checked on the cell tables
    # [C_K | Q_K] of S_H = C + Q W; the product S_H is never formed
    def refuse(self):
        raise AssertionError("the smoother matrix S_H was formed")

    monkeypatch.setattr(hho.smoothing.Smoother, "matrix", property(refuse))
    report = run_verification(degrees=[1], resolutions=[2], random_fields=2)
    assert report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert {"conformity", "orthogonality"} <= names


def test_suite_builds_no_jump_matrix(monkeypatch):
    # conformity samples each face side of the cell tables: no global jump
    # matrix of the broken coefficients is built
    def refuse(*args, **kwargs):
        raise AssertionError("a jump matrix was built")

    monkeypatch.setattr(hho.smoothing, "jump_matrix", refuse)
    monkeypatch.setattr(hho.verify, "jump_matrix", refuse, raising=False)
    report = run_verification(degrees=[1], resolutions=[2], random_fields=2)
    assert report["passed"]
    assert "conformity" in {c["name"] for c in report["checks"]}


def test_one_by_one_grid_passes_at_every_degree(tmp_path):
    # the 1 x 1 grid has cells of diameter sqrt(2): the projection rule must
    # integrate the sine to 1e-10 there too, at every degree the CLI accepts
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps(
        {"degrees": [0, 1, 2, 3], "resolutions": [1], "random_fields": 2}
    ))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]
