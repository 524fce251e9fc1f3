import tracemalloc

import numpy as np
import pytest

from conftest import (
    basis_at,
    hat_profile,
    jittered_square,
    reference_face_mass,
    sine,
    sine_grad,
    single_triangle_mesh,
)
from hho import local_ops
from hho.analysis import (
    best_error_h1,
    error_h1_broken,
    error_l2,
    get_case,
    kink_aligned_case,
)
from hho.local_ops import BrokenPoly, HHOSpace, assemble_bilinear, stiffness_blocks
from hho.mesh import SimplicialMesh, build_lshape, build_unit_square, refine_red
from hho.polyquad import (
    UnsupportedDegreeError,
    cell_basis_gradients,
    cell_basis_values,
    cell_quadrature,
    face_basis_values,
    face_quadrature,
    quad_for_degree,
    space_dimension,
)
from hho.smoothing import lagrange_interpolant
from hho.system import assemble, solve


@pytest.fixture(params=[0, 1, 2], ids=lambda p: f"p{p}")
def space(request):
    return HHOSpace(build_unit_square(3), request.param)


def face_traces_oracle(space, i):
    """Face traces int_F psi_m phi_j (T, nf, n1) of the degree-(p+1) cell
    basis on local face i, by physical face quadrature."""
    mesh = space.mesh
    fpts, fw = face_quadrature(mesh, space.rule_face, mesh.cell_faces[:, i])
    fphi1 = basis_at(mesh, space.p + 1, fpts)[0]
    psi = face_basis_values(space.p, space.rule_face.points[:, 1] - 0.5)
    return np.einsum("tq,qm,tqj->tmj", fw, psi, fphi1)


def stab_operator(space):
    """Stabilization operator S = s_M + (Id - Pi_M) R per cell (T, n1, nloc).

    Rebuilt from the reconstruction matrices, gathered per cell from the
    class table `G`, and the reference mass `mass_hat` (Pi_M is one
    reference matrix); it must reproduce the face-residual traces
    T_i = FaceSel_i - Pi_F(S .)|_F of `face_traces`, with the face
    projection from the physical face traces and the face mass h_F times
    the oracle `reference_face_mass`.
    """
    nc, nf = space.nc, space.nf
    Pi = np.linalg.solve(space.mass_hat[:nc, :nc], space.mass_hat[:nc, :])
    G = space.gather(space.G)
    S = G.copy()
    S[:, :nc, :] -= np.einsum("mi,tij->tmj", Pi, G)
    S[:, np.arange(nc), np.arange(nc)] += 1.0
    traces = space.face_traces()
    hf = space.mesh.h_face[space.mesh.cell_faces]
    for i in range(3):
        mass = hf[:, i, None, None] * reference_face_mass(space.p)
        proj = np.linalg.solve(mass, face_traces_oracle(space, i))
        Ti = -np.einsum("tmn,tnl->tml", proj, S)
        Ti[:, :, nc + i * nf: nc + (i + 1) * nf] += np.eye(nf)
        _assert_blocks_close(traces[:, i], Ti, 1e-12)
    return S


def test_space_stores_per_cell_only_what_the_solver_reads():
    # p = 3: held and peak memory of the build per cell, and the per-cell
    # arrays (leading axis T) it keeps, the class id and the dof map; `G`
    # is held once per geometry class (2 on this grid), and every other
    # cell table is a reference table times a per-cell scale. Measured:
    # 0.33 KiB per cell held (2.85 KiB when `G` was held per cell)
    mesh = build_unit_square(8)
    HHOSpace(mesh, 3)  # fill the rule and tabulation caches first
    tracemalloc.start()
    try:
        space = HHOSpace(mesh, 3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    T = mesh.num_cells
    assert held <= 0.4 * 1024 * T, held / T
    assert peak <= 24 * 1024 * T, peak / T
    per_cell = {name for name, value in vars(space).items()
                if isinstance(value, np.ndarray) and value.shape[:1] == (T,)}
    assert per_cell == {"cell_class", "local_dof_ids"}
    assert space.G.shape == (2, space.n1, space.nloc)


def per_cell_space(monkeypatch, mesh, p):
    """The space of degree p on `mesh` with every cell in a class of its
    own: the local operators built cell by cell."""
    def own_classes(space):
        space.cell_class = np.arange(space.mesh.num_cells)
        space.class_cells = np.arange(space.mesh.num_cells)

    with monkeypatch.context() as patched:
        patched.setattr(HHOSpace, "_build_classes", own_classes)
        return HHOSpace(mesh, p)


def assert_class_tables_equal(space, per_cell, cells=slice(None)):
    """The class tables `G`, `A_tt`, `elim` and `schur` of `space`,
    gathered to `cells`, equal the per-cell ones bitwise, and so do the face
    matrices."""
    system, reference = assemble(space), assemble(per_cell)
    for name, tables, want in [("G", space.G, per_cell.G),
                               ("A_tt", system.A_tt, reference.A_tt),
                               ("elim", system.elim, reference.elim),
                               ("schur", system.schur, reference.schur)]:
        assert np.array_equal(tables[space.cell_class[cells]], want[cells]), name
    assert np.array_equal(system.face_matrix.toarray(),
                          reference.face_matrix.toarray())


CLASS_MESHES = {
    "square": lambda: build_unit_square(4),
    "jittered": lambda: jittered_square(4),
    "lshape": lambda: build_lshape(2),
    "triangle": single_triangle_mesh,
}


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("name", CLASS_MESHES)
def test_class_tables_equal_the_per_cell_build(monkeypatch, name, p):
    # a cell enters G, A_K and the elimination only through its scaled
    # metric and face orientations, and the members of a class share their
    # exact bits: the tables formed once per class are every member's
    mesh = CLASS_MESHES[name]()
    assert_class_tables_equal(HHOSpace(mesh, p), per_cell_space(monkeypatch, mesh, p))


@pytest.mark.parametrize("level", [8, 16, 32])
def test_kink_aligned_levels_have_two_classes(level):
    space = HHOSpace(get_case("kink-aligned", 0).mesh_for(level), 0)
    assert len(space.class_cells) == 2
    # each class's first cell is its lowest-index member
    assert np.array_equal(space.cell_class[space.class_cells], [0, 1])


def test_jittered_mesh_has_one_class_per_cell():
    space = HHOSpace(jittered_square(8), 0)
    assert len(space.class_cells) == space.mesh.num_cells


def test_gather_reads_consecutive_classes_without_a_copy():
    # with a class per cell, a block of cells reads a block of class rows:
    # a read-only view of the class table; on a grid it is a copy
    space = HHOSpace(jittered_square(4), 1)
    rows = space.gather(space.G, slice(3, 9))
    assert np.shares_memory(rows, space.G) and not rows.flags.writeable
    assert np.array_equal(rows, space.G[3:9])
    grid = HHOSpace(build_unit_square(4), 1)
    rows = grid.gather(grid.G, slice(3, 9))
    assert not np.shares_memory(rows, grid.G)
    assert np.array_equal(rows, grid.G[grid.cell_class[3:9]])


def test_one_ulp_gives_a_cell_its_own_class(monkeypatch):
    # one cell's J^{-1} moved by one unit in the last place: its metric
    # changes in the last bits, so it leaves its class for one of its own,
    # and its operators are those of a per-cell computation
    mesh = build_unit_square(4)
    jinv = mesh.inverse_jacobians
    jinv[5, 0, 0] = np.nextafter(jinv[5, 0, 0], np.inf)
    space = HHOSpace(mesh, 3)
    assert len(space.class_cells) == 3
    assert np.flatnonzero(space.cell_class == space.cell_class[5]).tolist() == [5]
    per_cell = per_cell_space(monkeypatch, mesh, 3)
    assert_class_tables_equal(space, per_cell, cells=[5])
    assert np.array_equal(space.local_matrices([5]), per_cell.local_matrices([5]))


def test_degree_guard():
    with pytest.raises(UnsupportedDegreeError):
        HHOSpace(build_unit_square(2), 4)


def test_negative_quad_extra_is_refused():
    # fewer load points than the smoothed test functions need would
    # under-integrate the load silently
    with pytest.raises(ValueError, match="quad_extra"):
        HHOSpace(build_unit_square(2), 1, quad_extra=-1)
    assert HHOSpace(build_unit_square(2), 1, quad_extra=0).quad_extra == 0


def test_quad_extra_above_the_load_rule_is_refused():
    # at p = 3 the load rule has degree 5 + quad_extra and the highest rule
    # degree 20: 16 was once refused only by the rule table, in a message
    # that named neither quad_extra nor its bound
    mesh = build_unit_square(2)
    with pytest.raises(ValueError, match=r"quad_extra=16 must be in \[0, 15\] "
                                         r"at degree 3 \(quadrature degree 5"):
        HHOSpace(mesh, 3, quad_extra=16)
    assert HHOSpace(mesh, 3, quad_extra=15).rule_cell_load.degree == 20


@pytest.mark.parametrize("p", [0, 3])
def test_cell_blocks_do_not_change_the_results(monkeypatch, p):
    # per-cell work runs over blocks of CELL_BLOCK cells, and the classes
    # are keyed and their operators formed over blocks of as many: with
    # blocks of 5 (7 blocks on the 32 jittered cells, one class each, and
    # 58 on the 288 of the 12 x 12 grid with its 41 classes, the last block
    # partial) the classes, the build, the local operators stacked block by
    # block, the condensation and the solution equal those of one block
    # bitwise, and the projections (whose local solves are conditioned up
    # to about 4e9 at p = 3) and the errors, summed block by block, agree
    # to round-off: the errors to 1e-14 absolute, since the fields are of
    # size 1 and an error of 1e-5 loses digits to cancellation

    def run(mesh):
        space = HHOSpace(mesh, p)
        vec = space.interpolate(sine)
        blocks = local_ops.cell_blocks(mesh.num_cells)
        system = assemble(space)
        # a right-hand side that no blocked work computes
        rhs = np.random.default_rng(p).standard_normal(space.num_dofs)
        tables = [space.cell_class, space.G,
                  np.concatenate([space.local_matrices(c) for c in blocks]),
                  np.concatenate([space.face_traces(c) for c in blocks]),
                  system.face_matrix.toarray(), system.A_tt, system.elim,
                  solve(system, rhs)]
        projections = [space.project_cell(sine).coeffs,
                       space.elliptic_project(sine, sine_grad).coeffs]
        errors = [*error_h1_broken(space, sine_grad, vec),
                  error_l2(space, sine, vec),
                  best_error_h1(space, sine, sine_grad)]
        return tables, projections, np.array(errors)

    whole = local_ops.CELL_BLOCK
    for mesh in (jittered_square(4), build_unit_square(12)):
        monkeypatch.setattr(local_ops, "CELL_BLOCK", whole)
        tables, projections, errors = run(mesh)
        monkeypatch.setattr(local_ops, "CELL_BLOCK", 5)
        assert len(local_ops.cell_blocks(mesh.num_cells)) == -(-mesh.num_cells // 5)
        blocked_tables, blocked_projections, blocked_errors = run(mesh)
        for table, blocked in zip(tables, blocked_tables):
            assert np.array_equal(table, blocked)
        for table, blocked in zip(projections, blocked_projections):
            assert np.abs(table - blocked).max() <= 1e-12 * np.abs(table).max()
        assert np.allclose(blocked_errors, errors, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("work", ["space", "best_error_h1"])
def test_transient_memory_does_not_grow_with_the_cell_count(work, p):
    # per-cell work runs in fixed-size cell blocks, so the tracemalloc
    # transient (peak minus held) of the build and of the best error stays
    # flat from 512 to 2048 cells at every degree (at p = 3 it grew 4x when
    # every temporary had one row per cell; at p = 0 a class key formed
    # over the whole mesh at once grows the build's 4x)
    case = kink_aligned_case()

    def transient(n):
        mesh = build_unit_square(n)
        space = HHOSpace(mesh, p)
        run = {
            "space": lambda: HHOSpace(mesh, p),
            "best_error_h1": lambda: best_error_h1(space, case.u, case.grad_u),
        }[work]
        run()  # fill the rule caches first
        tracemalloc.start()
        try:
            result = run()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        return peak - held

    small, large = transient(16), transient(32)
    assert large <= 1.2 * small, (small, large)


def test_project_cell_idempotent_on_polynomials(space):
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal((space.mesh.num_cells, space.nc))
    bp = BrokenPoly(space.mesh, space.p, coeffs)
    proj = space.project_cell(bp)
    assert np.abs(proj.coeffs - coeffs).max() < 1e-12


def test_project_cell_p0_is_barycenter_value():
    sp = HHOSpace(build_unit_square(2), 0)
    proj = sp.project_cell(lambda x: x[..., 0])
    barycenters = sp.mesh.cell_vertices().mean(axis=1)
    assert np.allclose(proj.coeffs[:, 0], barycenters[:, 0], atol=1e-13)


def test_project_cell_is_l2_contraction(space):
    pts, w = cell_quadrature(space.mesh, space.rule_cell_proj)
    proj = space.project_cell(sine)
    n_proj = np.sqrt(np.einsum("tq,tq->", w, proj.values_at(pts) ** 2))
    n_v = np.sqrt(np.einsum("tq,tq->", w, sine(pts) ** 2))
    assert n_proj <= n_v + 1e-13


def test_project_face_constant(space):
    coeffs = space.project_face(lambda x: np.full(x.shape[:-1], 3.25))
    assert np.allclose(coeffs[:, 0], 3.25, atol=1e-13)
    if space.p > 0:
        assert np.abs(coeffs[:, 1:]).max() < 1e-13


def test_project_face_p0_arclength_is_midpoint_value():
    # projecting the coordinate along the face onto constants gives the
    # midpoint value
    sp = HHOSpace(build_unit_square(2), 0)
    coeffs = sp.project_face(lambda x: x[..., 0] + 2.0 * x[..., 1])
    faces = sp.mesh.interior_faces
    mids = sp.mesh.face_midpoints[faces]
    assert np.allclose(coeffs[:, 0], mids[:, 0] + 2.0 * mids[:, 1], atol=1e-13)


def test_project_face_idempotent_on_traces(space):
    if space.p == 0:
        pytest.skip("needs a non-constant global polynomial of degree <= p")
    coeffs = space.project_face(lambda x: 1.0 + x[..., 0] - 0.5 * x[..., 1])
    faces = space.mesh.interior_faces
    pts, _ = face_quadrature(space.mesh, space.rule_face, faces)
    psi = face_basis_values(space.p, space.rule_face.points[:, 1] - 0.5)
    got = np.einsum("qm,fm->fq", psi, coeffs)
    want = 1.0 + pts[..., 0] - 0.5 * pts[..., 1]
    assert np.abs(got - want).max() < 1e-12


def test_interpolate_zero_and_components(space):
    cells, faces = space.split(space.interpolate(lambda x: np.zeros(x.shape[:-1])))
    assert np.abs(cells).max() == 0.0
    assert np.abs(faces).max() == 0.0
    cells, faces = space.split(space.interpolate(sine))
    assert np.allclose(cells, space.project_cell(sine).coeffs)
    assert np.allclose(faces, space.project_face(sine))


@pytest.mark.parametrize("apply, name", [
    # NaN on half the domain
    (lambda sp: sp.interpolate(lambda x: np.where(x[..., 0] < 0.5, np.nan, 1.0)),
     "function v"),
    # the point axis is missing: (E,) instead of (E, Q)
    (lambda sp: sp.project_face(lambda x: x[:, 0, 0]), "function v"),
    # a scalar where the gradient belongs
    (lambda sp: sp.elliptic_project(sine, sine), "gradient grad_v"),
], ids=["nan-interpolate", "face-values-without-point-axis", "scalar-gradient"])
def test_bad_function_values_are_refused(apply, name):
    sp = HHOSpace(build_unit_square(4), 1)
    with pytest.raises(ValueError, match=f"{name} returned"):
        apply(sp)


@pytest.mark.parametrize("apply", [
    HHOSpace.project_cell, HHOSpace.project_face, HHOSpace.interpolate,
], ids=["project_cell", "project_face", "interpolate"])
@pytest.mark.parametrize("make_mesh", [
    lambda: jittered_square(2), lambda: build_unit_square(3),
], ids=["same-cell-count", "other-cell-count"])
def test_broken_poly_on_another_mesh_is_refused(make_mesh, apply):
    bp = HHOSpace(build_unit_square(2), 2).project_cell(sine)
    with pytest.raises(ValueError, match="another mesh"):
        apply(HHOSpace(make_mesh(), 1), bp)


def test_project_cell_reads_a_broken_poly_from_one_table(monkeypatch):
    # the projection reads a BrokenPoly from its basis tabulated once at the
    # rule's points, and agrees with its values pulled back from the
    # physical points of every cell (one block: the mesh has 32 cells)
    sp = HHOSpace(jittered_square(4), 2)
    bp = HHOSpace(sp.mesh, 3).project_cell(sine)
    pulled = sp.project_cell(lambda pts: bp.values_at(pts)).coeffs

    def refuse(*args, **kwargs):
        raise AssertionError("pulled back")

    monkeypatch.setattr(BrokenPoly, "values_at", refuse)
    got = sp.project_cell(bp).coeffs
    assert np.abs(got - pulled).max() <= 1e-14 * np.abs(pulled).max()


def test_broken_poly_on_an_equal_mesh_is_accepted():
    # a separately built copy of the space's mesh holds the same cells
    bp = HHOSpace(build_unit_square(2), 2).project_cell(sine)
    sp = HHOSpace(build_unit_square(2), 1)
    own = BrokenPoly(sp.mesh, bp.degree, bp.coeffs)
    assert np.array_equal(sp.interpolate(bp), sp.interpolate(own))


def test_interpolate_moments_match_quadrature_oracle(space):
    # int_K q (Pi_M v - v) = 0 for q in P^p, checked with an independent rule
    cells = space.split(space.interpolate(sine))[0]
    rule = quad_for_degree(2, 18)
    pts, w = cell_quadrature(space.mesh, rule)
    basis = basis_at(space.mesh, space.p, pts)[0]
    proj_vals = (basis @ cells[..., None])[..., 0]
    residual = np.einsum("tq,tqi,tq->ti", w, basis, proj_vals - sine(pts))
    assert np.abs(residual).max() < 1e-12


def test_reconstruct_of_piecewise_interpolant_is_identity(space):
    # q continuous piecewise P^{p+1} with zero boundary trace: R I q = q
    q = lagrange_interpolant(space.mesh, space.p + 1, hat_profile)
    recon = space.reconstruct(space.interpolate(q))
    assert np.abs(recon.coeffs - q.coeffs).max() < 1e-11


def test_reconstruct_constant_field(space):
    # (R s)|K depends only on the local data; on cells whose faces are all
    # interior the pair (c, c) is locally constant data and R returns c.
    # Boundary faces carry the structural zero, so boundary cells differ.
    vec = np.zeros(space.num_dofs)
    cell, face = space.split(vec)
    cell[:, 0] = 2.5
    face[:, 0] = 2.5
    recon = space.reconstruct(vec)
    inner = np.all(space.mesh.face_interior_index[space.mesh.cell_faces] >= 0, axis=1)
    assert inner.any()
    assert np.allclose(recon.coeffs[inner, 0], 2.5, atol=1e-12)
    assert np.abs(recon.coeffs[inner, 1:]).max() < 1e-11


def test_reconstruct_defining_equations_residual(space):
    # residual oracle: both defining conditions checked by direct quadrature
    rng = np.random.default_rng(7)
    vec = rng.standard_normal(space.num_dofs)
    cells, faces = space.split(vec)
    recon = space.reconstruct(vec)
    mesh = space.mesh
    rule = quad_for_degree(2, 14)
    pts, w = cell_quadrature(mesh, rule)
    n1 = space.n1
    _, grads, laps = basis_at(mesh, space.p + 1, pts)
    lhs = np.einsum("tq,tqd,tqjd->tj", w, recon.gradients_at(pts), grads)
    cell_vals = (basis_at(mesh, space.p, pts)[0] @ cells[..., None])
    rhs = -np.einsum("tq,tq,tqj->tj", w, cell_vals[..., 0], laps)
    frule = quad_for_degree(1, 14)
    for i in range(3):
        faces_i = mesh.cell_faces[:, i]
        fpts, fw = face_quadrature(mesh, frule, faces_i)
        gphi = basis_at(mesh, space.p + 1, fpts)[1]
        psi = face_basis_values(space.p, frule.points[:, 1] - 0.5)
        fidx = mesh.face_interior_index[faces_i]
        coef = np.where(
            (fidx >= 0)[:, None], faces[np.maximum(fidx, 0)], 0.0
        )
        svals = np.einsum("qm,fm->fq", psi, coef)
        rhs += np.einsum(
            "tq,tq,tqjd,td->tj", fw, svals, gphi, mesh.normals[:, i]
        )
    scale = max(np.abs(lhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() / scale < 1e-11
    means = np.einsum("tq,tq->t", w, recon.values_at(pts))
    ints = 2.0 * space.mesh.volumes[:, None] * space.ints_hat[: space.nc]
    target = np.einsum("ti,ti->t", ints, cells)
    assert np.abs(means - target).max() < 1e-12


def test_stab_operator_identity_on_interpolants(space):
    # S I v = E v + Pi_M(v - E v), both sides computed independently
    S = stab_operator(space)
    s_iv = (S @ space.local_coeffs(space.interpolate(sine))[..., None])[..., 0]
    ev = space.elliptic_project(sine, sine_grad)
    rhs = ev.coeffs.copy()
    rhs[:, : space.nc] += (
        space.project_cell(sine).coeffs - space.project_cell(ev).coeffs
    )
    assert np.abs(s_iv - rhs).max() < 1e-10


def test_stab_operator_fixes_polynomial_reconstructions(space):
    # where R s lands in P^p (interior cells of the interpolant of a global
    # degree-p polynomial), (Id - Pi_M) annihilates it and S s = s_M
    if space.p == 0:
        pytest.skip("needs a non-constant global polynomial of degree <= p")
    g = lambda x: x[..., 0] - 0.25 * x[..., 1]
    vec = space.interpolate(g)
    s_op = (stab_operator(space) @ space.local_coeffs(vec)[..., None])[..., 0]
    inner = np.all(space.mesh.face_interior_index[space.mesh.cell_faces] >= 0, axis=1)
    cells = space.split(vec)[0]
    assert np.abs(s_op[inner, : space.nc] - cells[inner]).max() < 1e-12
    assert np.abs(s_op[inner, space.nc:]).max() < 1e-12


def test_stab_form_symmetric_and_psd(space):
    rng = np.random.default_rng(3)
    a = rng.standard_normal(space.num_dofs)
    b = rng.standard_normal(space.num_dofs)
    # a quadratic form: the parallelogram law holds, and it is never negative
    sa, sb = space.stab_form(a), space.stab_form(b)
    assert space.stab_form(a + b) + space.stab_form(a - b) == pytest.approx(
        2.0 * (sa + sb), rel=1e-12)
    assert sa >= 0.0


def test_stab_form_vanishes_on_conforming_interpolants(space):
    q = lagrange_interpolant(space.mesh, space.p + 1, hat_profile)
    iq = space.interpolate(q)
    assert space.stab_form(iq) <= 1e-18


def test_stab_form_hand_value_p0_two_triangles():
    # independent quadrature oracle on the 2-triangle mesh
    sp = HHOSpace(build_unit_square(1), 0)
    mesh = sp.mesh
    vec = np.array([1.0, -2.0, 0.5])  # two cells, then the one interior face
    face = sp.split(vec)[1]
    S = stab_operator(sp)
    s_op = BrokenPoly(mesh, 1, (S @ sp.local_coeffs(vec)[..., None])[..., 0])
    rule = quad_for_degree(1, 8)
    total = 0.0
    for k in range(mesh.num_cells):
        for i in range(3):
            f = mesh.cell_faces[k, i]
            pts, w = face_quadrature(mesh, rule, np.array([f]))
            s_vals = s_op.values_at(pts, cells=np.array([k]))[0]
            s_sigma = face[mesh.face_interior_index[f], 0] \
                if mesh.face_interior_index[f] >= 0 else 0.0
            mean_residual = np.sum(w[0] * (s_sigma - s_vals)) / mesh.h_face[f]
            total += mean_residual ** 2 * mesh.h_face[f] / mesh.h_face[f]
    assert sp.stab_form(vec) == pytest.approx(total, rel=1e-11)


def test_elliptic_project_reproduces_polynomials(space):
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal((space.mesh.num_cells, space.n1))
    bp = BrokenPoly(space.mesh, space.p + 1, coeffs)
    proj = space.elliptic_project(bp, bp.gradients_at)
    assert np.abs(proj.coeffs - coeffs).max() < 1e-10


def test_elliptic_project_minimizes_gradient_error(space):
    # normal-equations oracle: per-cell least squares over P^{p+1}
    proj = space.elliptic_project(sine, sine_grad)
    pts, w = cell_quadrature(space.mesh, space.rule_cell_proj)
    grads = basis_at(space.mesh, space.p + 1, pts)[1]
    gv = sine_grad(pts)
    err_proj = np.einsum("tq,tqd->t", w, (gv - proj.gradients_at(pts)) ** 2)
    G = np.einsum("tq,tqid,tqjd->tij", w, grads[..., 1:, :], grads[..., 1:, :])
    b = np.einsum("tq,tqid,tqd->ti", w, grads[..., 1:, :], gv)
    c = np.linalg.solve(G, b[..., None])[..., 0]
    best = np.einsum("tq,tqd->t", w, gv ** 2) - np.einsum("ti,ti->t", c, b)
    assert np.abs(err_proj - best).max() < 1e-10


def test_reconstruction_identity_RI_equals_E(space):
    recon = space.reconstruct(space.interpolate(sine))
    proj = space.elliptic_project(sine, sine_grad)
    scale = np.abs(proj.coeffs).max()
    assert np.abs(recon.coeffs - proj.coeffs).max() / scale < 1e-10


def test_bilinear_b_on_interpolant_equals_gradient_norm(space):
    q = lagrange_interpolant(space.mesh, space.p + 1, hat_profile)
    x = space.interpolate(q)
    pts, w = cell_quadrature(space.mesh, space.rule_cell)
    grad_sq = np.einsum("tq,tqd->", w, q.gradients_at(pts) ** 2)
    assert x @ assemble(space).full_matrix @ x == pytest.approx(grad_sq, rel=1e-11)


def test_bilinear_b_positive_definite_tiny_mesh():
    # dense eigensolve oracle on the assembled matrix
    sp = HHOSpace(build_unit_square(1), 0)
    A = assemble_bilinear(sp, sp.local_matrices()).toarray()
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() > 0.0


def test_coercivity_against_hho_norm(space):
    from scipy.linalg import eigh

    B = assemble_bilinear(space, space.local_matrices()).toarray()
    H = assemble_bilinear(space, space.hho_norm_blocks()).toarray()
    lam_min = eigh(B, H, eigvals_only=True, subset_by_index=[0, 0])[0]
    assert lam_min > 1e-8


def test_coercivity_constant_stable_under_refinement():
    from scipy.linalg import eigh

    lams = []
    mesh = build_unit_square(2)
    for _ in range(3):
        sp = HHOSpace(mesh, 1)
        B = assemble_bilinear(sp, sp.local_matrices()).toarray()
        H = assemble_bilinear(sp, sp.hho_norm_blocks()).toarray()
        lams.append(eigh(B, H, eigvals_only=True, subset_by_index=[0, 0])[0])
        mesh = refine_red(mesh)
    assert (max(lams) - min(lams)) / max(lams) < 0.2


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_local_blocks_share_exactly_the_local_constant_kernel(p):
    # both bases start with the constant 1, so the local constant is 1 at
    # cell dof 0 and at the first dof of each face
    space = HHOSpace(jittered_square(3), p)
    nc, nf = space.nc, space.nf
    c = np.zeros(space.nloc)
    c[[0, nc, nc + nf, nc + 2 * nf]] = 1.0
    for blocks in (space.local_matrices(), space.hho_norm_blocks()):
        scale = np.abs(blocks).max(axis=(1, 2))
        assert np.abs(blocks @ c).max(axis=1).max() <= 1e-12 * scale.max()
        # and nothing else: one zero eigenvalue per cell
        eigs = np.linalg.eigvalsh(blocks)
        assert np.all(np.abs(eigs[:, 0]) <= 1e-12 * scale)
        assert np.all(eigs[:, 1] > 1e-8 * scale)


def test_interpolation_error_benchmark_ratio_bounded():
    # LHS of the interpolation bound stays within a fixed multiple of the
    # summed per-cell best errors across refinements
    ratios = []
    mesh = build_unit_square(2)
    for _ in range(4):
        sp = HHOSpace(mesh, 1)
        iv = sp.interpolate(sine)
        recon = sp.reconstruct(iv)
        pts, w = cell_quadrature(mesh, sp.rule_cell_proj)
        lhs = np.einsum("tq,tqd->", w, (sine_grad(pts) - recon.gradients_at(pts)) ** 2)
        lhs += sp.stab_form(iv)
        proj = sp.elliptic_project(sine, sine_grad)
        rhs = np.einsum("tq,tqd->", w, (sine_grad(pts) - proj.gradients_at(pts)) ** 2)
        ratios.append(lhs / rhs)
        mesh = refine_red(mesh)
    assert min(ratios) >= 1.0 - 1e-9
    assert max(ratios) <= 3.0


def test_field_vector_roundtrip(space):
    # split views the dof vector as its cell and interior-face blocks
    rng = np.random.default_rng(9)
    vec = rng.standard_normal(space.num_dofs)
    cells, faces = space.split(vec)
    assert cells.shape == (space.mesh.num_cells, space.nc)
    assert faces.shape == (space.mesh.num_interior_faces, space.nf)
    assert np.array_equal(np.concatenate([cells.ravel(), faces.ravel()]), vec)
    block = np.stack([vec, 2.0 * vec], axis=1)
    cells, faces = space.split(block)
    assert cells.shape == (space.mesh.num_cells, space.nc, 2)
    assert faces.shape == (space.mesh.num_interior_faces, space.nf, 2)
    for bad in (vec[:-1], np.append(vec, 0.0)):
        with pytest.raises(ValueError, match="dof vector has length"):
            space.split(bad)
        with pytest.raises(ValueError, match="dof vector has length"):
            space.reconstruct(bad)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_local_gather_is_transpose_of_assembly_scatter(p):
    # x^T (sum_K scatter(A_K)) y = sum_K x_K^T A_K y_K: the gather
    # local_coeffs is the transpose of the scatter in assemble_bilinear,
    # boundary faces included
    sp = HHOSpace(jittered_square(4), p)
    rng = np.random.default_rng(p)
    x, y = rng.standard_normal((2, sp.num_dofs))
    blocks = sp.local_matrices()
    glob = x @ (assemble_bilinear(sp, blocks) @ y)
    xl, yl = sp.local_coeffs(x), sp.local_coeffs(y)
    loc = np.einsum("ti,tij,tj->", xl, blocks, yl)
    assert loc == pytest.approx(glob, rel=1e-12)


def test_broken_poly_pad_and_shapes(space):
    # graded bases nest as prefixes: a degree-q table is the leading columns
    # of the degree-(q+1) table, so zero-padded coefficients keep their values
    bary = space.rule_cell.points
    low = cell_basis_values(space.p, bary)
    high = cell_basis_values(space.p + 1, bary)
    assert high.shape == low.shape[:1] + (space_dimension(space.p + 1),)
    assert np.array_equal(high[..., : space.nc], low)


def _einsum_kernels(space):
    """Cell tables and operators: the plain einsum formulas, term by term,
    over basis tables evaluated cell by cell at the physical quadrature
    points, with the physical normals and face diameters.

    The local solves and the G^T K G product take the space's own stiffness
    and cell mass 2|K| `mass_hat`, which are checked against their formulas
    on their own: the local condition numbers (about 1e6 and 4e9 at p = 3)
    would otherwise turn last-bit differences in those tables into 1e-12
    differences in G.
    """
    mesh, p, nc, nf = space.mesh, space.p, space.nc, space.nf
    T, n1, nloc = mesh.num_cells, space.n1, space.nloc
    hf = mesh.h_face[mesh.cell_faces]
    pts, w = cell_quadrature(mesh, space.rule_cell)
    phi1, gphi1, lphi1 = basis_at(mesh, p + 1, pts)
    ref = {
        "mass1": np.einsum("tq,tqi,tqj->tij", w, phi1, phi1),
        "stiff1": np.einsum("tq,tqid,tqjd->tij", w, gphi1, gphi1),
        "Ntr": [],
        "Bflux": [],
    }
    # the coercivity norm: the broken H1 block of v_K plus
    # sum_F h_F^{-1} ||v_F - v_K||_F^2
    H = np.zeros((T, nloc, nloc))
    H[:, :nc, :nc] = ref["stiff1"][:, :nc, :nc]
    psi = face_basis_values(p, space.rule_face.points[:, 1] - 0.5)
    for i in range(3):
        fpts, fw = face_quadrature(mesh, space.rule_face, mesh.cell_faces[:, i])
        fphi1, fgphi1, _ = basis_at(mesh, p + 1, fpts)
        ref["Ntr"].append(face_traces_oracle(space, i))
        ref["Bflux"].append(np.einsum(
            "tq,qm,tqjd,td->tmj", fw, psi, fgphi1, mesh.normals[:, i]
        ))
        jump = np.zeros((T, len(psi), nloc))  # v_F - v_K at the face points
        jump[:, :, :nc] = -fphi1[..., :nc]
        jump[:, :, nc + i * nf: nc + (i + 1) * nf] = psi
        H += np.einsum("tq,tqa,tqb->tab", fw / hf[:, i, None], jump, jump)
    ref["H"] = H

    B = np.zeros((T, n1, nloc))
    B[:, :, :nc] = -np.einsum("tq,tqm,tqj->tjm", w, phi1[..., :nc], lphi1)
    for i in range(3):
        B[:, :, nc + i * nf: nc + (i + 1) * nf] = ref["Bflux"][i].transpose(0, 2, 1)
    stiff1, mass1 = stiffness_blocks(mesh, space.stiff_hat), cell_mass(space)
    Gred = np.linalg.solve(stiff1[:, 1:, 1:], B[:, 1:, :])
    ints1 = np.einsum("tq,tqi->ti", w, phi1)
    int_row = np.zeros((T, nloc))
    int_row[:, :nc] = ints1[:, :nc]
    G = np.zeros((T, n1, nloc))
    G[:, 1:, :] = Gred
    G[:, 0, :] = (int_row - np.einsum("ti,tij->tj", ints1[:, 1:], Gred)) \
        / mesh.volumes[:, None]

    Pi = np.linalg.solve(mass1[:, :nc, :nc], mass1[:, :nc, :])
    S = G.copy()
    S[:, :nc, :] -= np.einsum("tmi,tij->tmj", Pi, G)
    S[:, np.arange(nc), np.arange(nc)] += 1.0
    mhat = reference_face_mass(p)
    traces = np.empty((T, 3, nf, nloc))
    for i in range(3):
        Qi = np.einsum("mn,tnj->tmj", np.linalg.inv(mhat), ref["Ntr"][i])
        traces[:, i] = -np.einsum("tmj,tjl->tml", Qi, S) / hf[:, i, None, None]
        traces[:, i, :, nc + i * nf: nc + (i + 1) * nf] += np.eye(nf)
    ref["G"] = G
    ref["A"] = (np.einsum("tfml,mn,tfnk->tlk", traces, mhat, traces)
                + np.einsum("til,tij,tjk->tlk", G, stiff1, G))
    return ref


def cell_mass(space):
    """Degree-(p+1) cell mass (T, n1, n1): 2|K| times the reference table."""
    return 2.0 * space.mesh.volumes[:, None, None] * space.mass_hat


def _assert_blocks_close(actual, expected, rtol):
    """Per-cell blocks agree to rtol relative to each block's max entry."""
    err = np.abs(actual - expected).max(axis=(-2, -1))
    scale = np.abs(expected).max(axis=(-2, -1))
    assert np.all(err <= rtol * scale), float((err / scale).max())


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_batched_kernels_match_einsum_on_jittered_mesh(p):
    space = HHOSpace(jittered_square(4), p)
    ref = _einsum_kernels(space)
    _assert_blocks_close(cell_mass(space), ref["mass1"], 1e-12)
    stiff1 = stiffness_blocks(space.mesh, space.stiff_hat)
    _assert_blocks_close(stiff1, ref["stiff1"], 1e-12)
    _assert_blocks_close(space.gather(space.G), ref["G"], 1e-12)
    _assert_blocks_close(space.local_matrices(), ref["A"], 1e-12)
    # the face tables enter only through G, A_K and H_K: the flux (in
    # metric form) through G, checked above against the physical normals
    _assert_blocks_close(space.hho_norm_blocks(), ref["H"], 1e-12)


def _moved(mesh, move):
    """The mesh with every vertex mapped by `move`, cells as given."""
    return SimplicialMesh(move(mesh.vertices), mesh.cells)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_local_operators_are_similarity_invariant(p):
    # G, A_K and H_K read a cell only through 2|K| J^{-1} J^{-T} and its face
    # orientations, which a similarity leaves unchanged: bitwise where the
    # map is exact in floating point (on grid vertices at multiples of 1/4:
    # scaling by 4, a translation and a quarter turn), to round-off on the
    # jittered mesh. Translating the jittered vertices rounds them by up to
    # 6e-17, which the local solve at p = 3 lifts to 1.1e-13 of a cell's
    # largest entry of G; the whole arrays agree to 3e-14 (Frobenius).
    def operators(mesh):
        space = HHOSpace(mesh, p)
        return (space.gather(space.G), space.local_matrices(),
                space.hho_norm_blocks())

    shift = np.array([-0.5, 0.25])
    grid = build_unit_square(4)
    base = operators(grid)
    for move in (lambda v: 4.0 * v, lambda v: v + shift,
                 lambda v: v[:, ::-1] * [-1.0, 1.0]):
        for want, got in zip(base, operators(_moved(grid, move))):
            assert np.array_equal(want, got)
    jittered = jittered_square(4)
    base = operators(jittered)
    for move in (lambda v: v + shift, lambda v: v[:, ::-1] * [-1.0, 1.0]):
        for want, got in zip(base, operators(_moved(jittered, move))):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("degree", [1, 2, 4])
def test_broken_poly_gradients_match_central_differences(degree):
    # arbitrary points on a jittered mesh: gradients_at maps the reference
    # gradients by J^{-1}, values_at only pulls the points back
    mesh = jittered_square(3)
    rng = np.random.default_rng(degree)
    bp = BrokenPoly(mesh, degree,
                    rng.standard_normal((mesh.num_cells, space_dimension(degree))))
    bary = rng.dirichlet((2, 2, 2), size=(mesh.num_cells, 4))
    pts = bary @ mesh.cell_vertices()
    eps = 1e-6
    grads = bp.gradients_at(pts)
    for d in range(2):
        shift = np.zeros(2)
        shift[d] = eps
        fd = (bp.values_at(pts + shift) - bp.values_at(pts - shift)) / (2 * eps)
        assert np.abs(grads[..., d] - fd).max() < 1e-7 * max(np.abs(grads).max(), 1.0)
    # the same values and gradients at shared barycentric points
    shared = bary[0] @ mesh.cell_vertices()
    values = bp.values_on(cell_basis_values(degree, bary[0]))
    gradients = bp.gradients_on(cell_basis_gradients(degree, bary[0]))
    assert np.abs(values - bp.values_at(shared)).max() < 1e-13
    assert np.abs(gradients - bp.gradients_at(shared)).max() < 1e-11
