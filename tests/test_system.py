import tracemalloc
import types

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from conftest import hat_profile, jittered_square, sine_f0, single_triangle_mesh
from hho.analysis import get_case
from hho.local_ops import HHOSpace
from hho.mesh import (
    DISSECTION_LEAF,
    build_lshape,
    build_unit_square,
    read_mesh_file,
    write_mesh_file,
)
from hho.polyquad import cell_basis_values, cell_quadrature, quad_for_degree
from hho.smoothing import Smoother, lagrange_interpolant
from hho.system import (
    FaceFactor,
    LoadFunctional,
    MethodNotApplicableError,
    SolverError,
    assemble,
    lanczos_max,
    residual_inf,
    rhs_classical,
    rhs_smoothed,
    solve,
    solve_full,
)


def test_load_functional_variants():
    zero = lambda x: np.zeros(x.shape[:-1])
    assert not LoadFunctional(f0=zero).has_divergence_part
    assert LoadFunctional(g=lambda x: np.zeros(x.shape)).has_divergence_part
    assert LoadFunctional(f0=zero, g=lambda x: np.zeros(x.shape)).has_divergence_part
    with pytest.raises(ValueError):
        LoadFunctional()


@pytest.mark.parametrize("load, name", [
    # NaN on half the domain
    (LoadFunctional(f0=lambda x: np.where(x[..., 0] < 0.5, np.nan, 1.0)), "f0"),
    (LoadFunctional(g=lambda x: np.full(x.shape, np.inf)), "g"),
    # the cell axis is missing: (Q,) instead of (T, Q)
    (LoadFunctional(f0=lambda x: np.ones(x.shape[1])), "f0"),
], ids=["nan-f0", "inf-g", "f0-without-cell-axis"])
def test_bad_load_values_are_refused(load, name):
    sp = HHOSpace(build_unit_square(4), 1)
    with pytest.raises(ValueError, match=f"load {name} "):
        rhs_smoothed(sp, Smoother(sp), load)
    if not load.has_divergence_part:
        with pytest.raises(ValueError, match=f"load {name} "):
            rhs_classical(sp, load)


def test_assembled_matrix_symmetry_exact():
    sp = HHOSpace(build_unit_square(3), 2)
    A = assemble(sp).full_matrix
    diff = (A - A.T).tocoo()
    assert np.abs(diff.data).max(initial=0.0) == 0.0


def _reachable_arrays(root):
    """Every numpy array reachable from `root` through instance attributes,
    containers (sparse matrices included) and the bases of array views."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return arrays


def test_assembly_keeps_no_local_matrix():
    # the local blocks A_K exist one block of geometry classes at a time:
    # after `assemble` the system holds only the cell rows A_tt, the
    # elimination and the Schur complement per class, no face matrix, and
    # no array of the system or its space has the shape (T, nloc, nloc) or
    # (T, 3 nf, 3 nf). At p = 3 it holds 0.11 KiB per cell on the grid (2
    # classes; the face dof map) and 2.94 KiB on the jittered mesh (one
    # class per cell)
    for mesh, kib_per_cell in [(build_unit_square(16), 0.2),
                               (jittered_square(16), 3.2)]:
        space = HHOSpace(mesh, 3)
        assemble(space)  # fill the rule and tabulation caches first
        tracemalloc.start()
        try:
            system = assemble(space)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        T, nc, nf, nloc = mesh.num_cells, space.nc, space.nf, space.nloc
        assert held <= kib_per_cell * 1024 * T, held / T
        C = len(space.class_cells)
        assert system.A_tt.shape == (C, nc, nc)
        assert system.elim.shape == (C, nc, 3 * nf)
        assert system.schur.shape == (C, 3 * nf, 3 * nf)
        assert "face_matrix" not in vars(system)
        shapes = {a.shape for a in _reachable_arrays(system)}
        assert space.G.shape in shapes
        assert (T, nloc, nloc) not in shapes
        if C < T:  # with one class per cell the class tables have T rows
            assert (T, 3 * nf, 3 * nf) not in shapes


def test_condensed_matrix_symmetric_spd():
    sp = HHOSpace(build_unit_square(4), 1)
    S = assemble(sp).face_matrix
    asym = np.abs((S - S.T).data).max(initial=0.0)
    assert asym <= 1e-13 * np.abs(S.data).max()
    assert np.linalg.eigvalsh(S.toarray()).min() > 0.0


def test_assembled_matrix_positive_definite_two_triangles():
    # dense eigensolve oracle
    sp = HHOSpace(build_unit_square(1), 0)
    A = assemble(sp).full_matrix.toarray()
    assert np.linalg.eigvalsh(A).min() > 0.0


def test_condensed_solution_matches_full_solve():
    for p in (0, 1, 2):
        sp = HHOSpace(build_unit_square(4), p)
        system = assemble(sp)
        rhs = rhs_classical(sp, LoadFunctional(f0=sine_f0))
        u_c = solve(system, rhs)
        u_f = solve_full(system, rhs)
        assert np.abs(u_c - u_f).max() < 1e-10


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_face_matrix_is_dense_schur_complement_on_jittered_mesh(p):
    sp = HHOSpace(jittered_square(4), p)
    system = assemble(sp)
    K = system.full_matrix.toarray()
    nt = sp.num_cell_dofs
    schur = K[nt:, nt:] - K[nt:, :nt] @ np.linalg.solve(K[:nt, :nt], K[:nt, nt:])
    S = system.face_matrix.toarray()
    assert np.abs(S - schur).max() <= 1e-12 * np.abs(schur).max()


def _stored(factor):
    """Entries a `FaceFactor` stores, padding included: L11^{-1} and L21."""
    return sum(Linv.size + L21.size for _, _, Linv, L21 in factor.batches)


def test_condensed_solve_symmetric_ordering_p3():
    # the SPD face system is factored on the dissection tree: fewer stored
    # entries than the L+U of scipy's default COLAMD, same residual
    sp = HHOSpace(build_unit_square(8), 3)
    system = assemble(sp)
    rhs = rhs_classical(sp, LoadFunctional(f0=sine_f0))
    vec = solve(system, rhs)
    assert residual_inf(system, vec, rhs) < 1e-10
    colamd = splu(system.face_matrix.tocsc())
    assert _stored(system.face_factor) < colamd.L.nnz + colamd.U.nnz


def _recursive_dissection(mesh):
    """The dissection order by plain recursion over the parts, one part at a
    time, as ranks among the interior faces by ascending index, the heap
    index of the part that places each face (the same ranks), and the pairs
    of face sets of the two halves of every split."""
    ends = mesh.face_cells[~mesh.boundary_face_mask]
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    splits, node = [], {}

    def order(cells, faces, part):
        if len(faces) <= DISSECTION_LEAF:
            node.update(dict.fromkeys(faces, part))
            return sorted(faces)
        cuts = []
        for axis in (0, 1):
            ranked = sorted(cells, key=lambda c: (centroids[c, axis], c))
            upper = set(ranked[len(ranked) // 2:])
            cut = [f for f in faces if (ends[f, 0] in upper) != (ends[f, 1] in upper)]
            cuts.append((len(cut), axis, upper, cut))
        _, _, upper, cut = min(cuts, key=lambda c: c[:2])
        lower_faces = [f for f in faces if f not in cut and ends[f, 0] not in upper]
        upper_faces = [f for f in faces if f not in cut and ends[f, 0] in upper]
        splits.append((lower_faces, upper_faces))
        node.update(dict.fromkeys(cut, part))
        return (order([c for c in cells if c not in upper], lower_faces, 2 * part + 1)
                + order(sorted(upper), upper_faces, 2 * part + 2) + sorted(cut))

    return order(list(range(mesh.num_cells)), list(range(len(ends))), 0), node, splits


DISSECTION_MESHES = {
    "square": lambda: build_unit_square(8),
    "jittered": lambda: jittered_square(8),
    "lshape": lambda: build_lshape(4),
    "two-triangles": lambda: build_unit_square(1),
    "no-interior-face": single_triangle_mesh,
}


@pytest.mark.parametrize("name", DISSECTION_MESHES)
def test_dissection_order_is_recursive_bisection(name):
    mesh = DISSECTION_MESHES[name]()
    want, node, splits = _recursive_dissection(mesh)
    ascending = np.flatnonzero(~mesh.boundary_face_mask)
    assert mesh.interior_faces.tolist() == ascending[want].tolist()
    assert mesh.dissection_tree.tolist() == [node[f] for f in want]
    Ei = mesh.num_interior_faces
    assert np.array_equal(mesh.face_interior_index[mesh.interior_faces], np.arange(Ei))
    # no face of one half shares a cell with a face of the other half
    ends = mesh.face_cells[ascending]
    for lower, upper in splits:
        assert not set(ends[lower].ravel()) & set(ends[upper].ravel())
    # the factor and both solvers run on it
    sp = HHOSpace(mesh, 1)
    system = assemble(sp)
    rhs = rhs_classical(sp, LoadFunctional(f0=sine_f0))
    for method in ("direct", "cg"):
        assert residual_inf(system, solve(system, rhs, method), rhs) < 1e-10


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("name", DISSECTION_MESHES)
def test_face_matrix_pattern_is_the_face_pairs_sharing_a_cell(name, p):
    mesh = DISSECTION_MESHES[name]()
    sp = HHOSpace(mesh, p)
    S = assemble(sp).face_matrix
    n, nf = sp.num_face_dofs, sp.nf
    assert type(S) is sparse.csc_matrix and S.shape == (n, n)
    assert S.has_canonical_format
    # SuperLU's own index type: splu takes the arrays without a copy
    assert S.indices.dtype == np.intc and S.indptr.dtype == np.intc
    want = set()
    for K in range(mesh.num_cells):
        faces = [f for f in mesh.face_interior_index[mesh.cell_faces[K]] if f >= 0]
        for G in faces:
            for F in faces:
                want.update((G * nf + a, F * nf + b)
                            for a in range(nf) for b in range(nf))
    cols = np.repeat(np.arange(n), np.diff(S.indptr))
    got = list(zip(S.indices.tolist(), cols.tolist()))
    assert len(got) == len(set(got)) and set(got) == want


# the reference factors: SuperLU's minimum-degree ordering of A^T + A,
# applied symmetrically, and the matrix as numbered, both with diagonal pivots
MMD_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
SPD_LU = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})


def _ascending_faces(space):
    """Indices into the face block of the `HHOSpace` layout that list its
    dofs with the interior faces by ascending global index."""
    faces = np.argsort(space.mesh.interior_faces)
    return (faces[:, None] * space.nf + np.arange(space.nf)).ravel()


def _mesh_file(tmp_path):
    """A jittered mesh through the node/element file, as `--mesh` reads it."""
    path = tmp_path / "jittered.msh"
    write_mesh_file(jittered_square(5, seed=3), path)
    return read_mesh_file(path)


SOLVE_MESHES = {
    "jittered": lambda tmp_path: jittered_square(4),
    "lshape": lambda tmp_path: build_lshape(4),
    "two-triangles": lambda tmp_path: build_unit_square(1),
    "one-triangle": lambda tmp_path: single_triangle_mesh(),
    "mesh-file": _mesh_file,
}


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("mesh", SOLVE_MESHES)
def test_solve_matches_minimum_degree_factor_in_space_order(mesh, p, tmp_path):
    # the face matrix factored by SuperLU, as numbered and with the
    # minimum-degree ordering of the interior faces by ascending index: the
    # same face unknowns as both solvers; a rerun repeats the direct solve
    # bit for bit
    sp = HHOSpace(SOLVE_MESHES[mesh](tmp_path), p)
    system = assemble(sp)
    rhs = np.random.default_rng(p).standard_normal(sp.num_dofs)
    b_f = system.condense_rhs(rhs)
    if len(b_f):
        back = _ascending_faces(sp)
        S = system.face_matrix[back][:, back].tocsc()
        wants = [splu(S, **MMD_LU).solve(b_f[back]),
                 splu(system.face_matrix, **SPD_LU).solve(b_f)[back]]
    else:
        back, wants = [], [np.zeros(0)]
    for method in ("direct", "cg"):
        got = solve(system, rhs, method)[sp.num_cell_dofs:][back]
        for want in wants:
            assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)
    again = solve(assemble(sp), rhs)
    assert again.tobytes() == solve(system, rhs).tobytes()


def _spread(tree):
    """`tree` with a node that places no face between every node and its
    parent: the halves b1 b2 ... bd taken from the root to a node become
    0 b1 0 b2 ... 0 bd."""
    out = []
    for node in tree.tolist():
        path = "".join("0" + b for b in format(node + 1, "b")[1:])
        out.append((1 << len(path)) - 1 + int(path or "0", 2))
    return np.array(out)


@pytest.mark.parametrize("p", [0, 3])
def test_front_without_faces_passes_its_updates_to_the_nearest_front(p):
    # no built-in mesh has a cut that crosses no face: on the spread tree
    # every front's parent places none, and its updates go to the front two
    # levels up; the solve still agrees with SuperLU's
    sp = HHOSpace(jittered_square(4), p)
    system = assemble(sp)
    tree = _spread(sp.mesh.dissection_tree)
    assert not set(((tree[tree > 0] - 1) // 2).tolist()) & set(tree.tolist())
    b = np.random.default_rng(p).standard_normal(sp.num_face_dofs)
    want = splu(system.face_matrix, **SPD_LU).solve(b)
    got = FaceFactor(sp, system.schur, tree).solve(b)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_indefinite_schur_block_is_a_solver_error():
    # one class's Schur complement, negated, makes a front indefinite
    sp = HHOSpace(build_unit_square(4), 1)
    system = assemble(sp)
    system.schur[0] *= -1.0
    with pytest.raises(SolverError,
                       match=r"not positive definite: a front at dissection depth \d+ "):
        solve(system, np.ones(sp.num_dofs))


def test_face_matrix_condition_number_p3_lshape():
    # the orthonormal face basis keeps the p = 3 face matrix well scaled: its
    # 2-norm condition number on the 4-level L-shape is about 2.7e2 (4.9e4
    # with face monomials)
    S = assemble(HHOSpace(build_lshape(4), 3)).face_matrix.toarray()
    assert np.linalg.cond(S) < 1e3


@pytest.mark.parametrize("case", ["kink-aligned", "corner-singular"])
def test_dissection_factor_fills_less_than_minimum_degree(case):
    # the tree factor stores L11^{-1} and L21 per front, padding included:
    # at most 0.7 of SuperLU's L+U as numbered (0.68 on kink-aligned), and
    # fewer than the minimum-degree L+U
    sp = HHOSpace(get_case(case, 3).mesh_for(32), 3)
    system = assemble(sp)
    back = _ascending_faces(sp)
    mmd = splu(system.face_matrix[back][:, back].tocsc(), **MMD_LU)
    numbered = splu(system.face_matrix, **SPD_LU)
    stored = _stored(system.face_factor)
    assert stored <= 0.7 * (numbered.L.nnz + numbered.U.nnz)
    assert stored < mmd.L.nnz + mmd.U.nnz


def test_solvers_leave_the_rhs_unchanged():
    sp = HHOSpace(jittered_square(4), 2)
    system = assemble(sp)
    rhs = np.random.default_rng(5).standard_normal(sp.num_dofs)
    before = rhs.copy()
    for method in ("direct", "cg"):
        solve(system, rhs, method)
        assert rhs.tobytes() == before.tobytes()
    solve_full(system, rhs)
    assert rhs.tobytes() == before.tobytes()


def test_rhs_classical_zero_load():
    sp = HHOSpace(build_unit_square(2), 1)
    rhs = rhs_classical(sp, LoadFunctional(f0=lambda x: np.zeros(x.shape[:-1])))
    assert np.abs(rhs).max() == 0.0


def test_rhs_classical_unit_load_p0_gives_areas():
    sp = HHOSpace(build_unit_square(2), 0)
    rhs = rhs_classical(sp, LoadFunctional(f0=lambda x: np.ones(x.shape[:-1])))
    assert np.allclose(rhs[: sp.num_cell_dofs], sp.mesh.volumes, atol=1e-14)
    assert np.abs(rhs[sp.num_cell_dofs:]).max() == 0.0


def test_rhs_classical_matches_quadrature_oracle():
    sp = HHOSpace(build_unit_square(3), 2)
    rhs = rhs_classical(sp, LoadFunctional(f0=sine_f0))
    rule = quad_for_degree(2, 18)
    pts, w = cell_quadrature(sp.mesh, rule)
    basis = cell_basis_values(sp.p, rule.points)
    oracle = np.einsum("tq,tq,qi->ti", w, sine_f0(pts), basis).ravel()
    # load rule is intentionally coarser than the oracle rule
    assert np.abs(rhs[: sp.num_cell_dofs] - oracle).max() < 1e-6
    assert np.abs(rhs[sp.num_cell_dofs:]).max() == 0.0


def test_rhs_classical_refuses_divergence_loads():
    sp = HHOSpace(build_unit_square(2), 1)
    with pytest.raises(MethodNotApplicableError):
        rhs_classical(sp, LoadFunctional(g=lambda x: np.zeros(x.shape)))


def test_rhs_smoothed_zero_load():
    sp = HHOSpace(build_unit_square(2), 1)
    sm = Smoother(sp)
    rhs = rhs_smoothed(sp, sm, LoadFunctional(f0=lambda x: np.zeros(x.shape[:-1])))
    assert np.abs(rhs).max() == 0.0


def test_solve_zero_rhs_gives_zero_field():
    sp = HHOSpace(build_unit_square(2), 1)
    system = assemble(sp)
    vec = solve(system, np.zeros(sp.num_dofs))
    assert np.abs(vec).max() == 0.0


def test_discrete_residual_small_smooth_problem():
    sp = HHOSpace(build_unit_square(16), 1)
    system = assemble(sp)
    rhs = rhs_classical(sp, LoadFunctional(f0=sine_f0))
    vec = solve(system, rhs)
    assert residual_inf(system, vec, rhs) < 1e-10


def test_residual_inf_is_the_assembled_residual():
    # the residual applies A from the local blocks: it agrees with the
    # assembled matrix to round-off, on a vector that is not a solution
    sp = HHOSpace(jittered_square(4), 2)
    system = assemble(sp)
    rng = np.random.default_rng(3)
    vec, rhs = rng.standard_normal((2, sp.num_dofs))
    want = np.abs(system.full_matrix @ vec - rhs).max()
    assert residual_inf(system, vec, rhs) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("n", [1, 3, 60])
def test_lanczos_max_matches_dense_pencil(n):
    # the largest eigenvalue of M^{-1} N, self-adjoint in the M inner
    # product: from the start vector of ones, and within n steps
    rng = np.random.default_rng(n)
    X, Y = rng.standard_normal((2, n, n))
    M, N = X @ X.T + n * np.eye(n), Y + Y.T
    ops = []
    got = lanczos_max(lambda x: ops.append(1) or np.linalg.solve(M, N @ x),
                      lambda x: M @ x, np.ones(n), 1e-14)
    want = eigh(N, M, eigvals_only=True)[-1]
    assert got == pytest.approx(want, rel=1e-12)
    assert len(ops) <= n


def test_shifted_system_has_no_full_matrix():
    # a shifted system solves A - sigma H: a residual against the unshifted A
    # would mix the two matrices, so full_matrix and every reader refuse
    sp = HHOSpace(build_unit_square(4), 1)
    rhs = rhs_classical(sp, LoadFunctional(f0=sine_f0))
    shifted = assemble(sp, shift=0.1)
    assert shifted.shift == 0.1
    vec = solve(shifted, rhs)
    for read in (lambda: shifted.full_matrix, lambda: residual_inf(shifted, vec, rhs),
                 lambda: solve_full(shifted, rhs)):
        with pytest.raises(ValueError, match="shifted by 0.1"):
            read()
    unshifted = assemble(sp, shift=0.0)
    assert residual_inf(unshifted, solve(unshifted, rhs), rhs) < 1e-12


def test_cg_solver_matches_direct():
    sp = HHOSpace(build_unit_square(4), 1)
    system = assemble(sp)
    rhs = rhs_classical(sp, LoadFunctional(f0=sine_f0))
    u_d = solve(system, rhs, method="direct")
    u_cg = solve(system, rhs, method="cg")
    assert np.abs(u_d - u_cg).max() < 1e-9


def test_unknown_solver_rejected():
    # the single triangle has no face unknown, so nothing is left to solve
    for mesh in (build_unit_square(1), single_triangle_mesh()):
        sp = HHOSpace(mesh, 0)
        system = assemble(sp)
        with pytest.raises(ValueError, match="unknown solver method"):
            solve(system, np.zeros(sp.num_dofs), method="gauss-seidel")


def test_discrete_consistency_smoothed_method():
    # continuous piecewise-P^{p+1} solution with load g = grad u: the
    # smoothed method returns exactly the interpolant
    for p in (0, 1, 2):
        sp = HHOSpace(build_unit_square(4), p)
        q = lagrange_interpolant(sp.mesh, p + 1, hat_profile)
        load = LoadFunctional(g=q.gradients_at)
        sm = Smoother(sp)
        system = assemble(sp)
        vec = solve(system, rhs_smoothed(sp, sm, load))
        assert np.abs(vec - sp.interpolate(q)).max() < 1e-9


def test_energy_stability_across_refinements():
    # ||U||_b approaches ||grad u|| = pi/sqrt(2) for the sine problem; the
    # smoothed method stays within a fixed window (stability sanity check)
    target = np.pi / np.sqrt(2.0)
    energies = []
    for n in (8, 16):
        sp = HHOSpace(build_unit_square(n), 1)
        sm = Smoother(sp)
        system = assemble(sp)
        rhs = rhs_smoothed(sp, sm, LoadFunctional(f0=sine_f0))
        x = solve(system, rhs)
        energies.append(np.sqrt(x @ system.full_matrix @ x))
    for e in energies:
        assert 0.8 * target < e < 1.25 * target
