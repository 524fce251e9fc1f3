import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import block_diag, eigh

import hho.local_ops
import hho.smoothing
from conftest import basis_at, hat_profile, jittered_square, single_triangle_mesh
from hho.analysis import get_case, run_convergence
from hho.local_ops import (
    BrokenPoly,
    HHOSpace,
    _gather,
    reference_stiffness,
    scatter_add,
    scatter_blocks,
    stiffness_blocks,
)
from hho.mesh import SimplicialMesh, build_lshape, build_unit_square, refine_red
from hho.polyquad import (
    cell_basis_values,
    cell_quadrature,
    face_barycentric,
    face_basis_values,
    face_quadrature,
    quad_for_degree,
    reference_face_mass,
    space_dimension,
)
from hho.smoothing import (
    AVERAGING_VARIANTS,
    Smoother,
    _bubbles,
    conformity_residual,
    consistency_constant,
    jump_matrix,
    lagrange_basis_values,
    lagrange_interpolant,
    lattice_multis,
    moment_residuals,
    on_faces,
    orthogonality_residual,
)
from hho.system import assemble, rhs_smoothed


def max_jump(sm, coeffs):
    """Max face jump and boundary trace of broken degree-D coefficients, sampled."""
    return np.abs(jump_matrix(sm.space.mesh, sm.degree) @ coeffs).max()


def reconstruction_oracle(space, degree):
    """R as a sparse matrix: dofs -> broken degree-`degree` coefficients, G
    in the leading n1 coefficients of each cell (degree >= p+1)."""
    T, n = space.mesh.num_cells, space_dimension(degree)
    return scatter_blocks(
        space.G, np.arange(T)[:, None] * n + np.arange(space.n1),
        space.local_dof_ids, (T * n, space.num_dofs),
    )


def dense_broken_stiffness(space, degree):
    """Block-diagonal broken degree-`degree` stiffness, dense."""
    K = stiffness_blocks(space.mesh, reference_stiffness(degree, space.rule_cell))
    return block_diag(*K)


def bubble_poly(sm, cells, lattice_values):
    """Degree-D polynomials on `cells` interpolating the Smoother's lattice
    bubble values (one row of lattice values per cell)."""
    coeffs = np.zeros((sm.space.mesh.num_cells, sm.nD))
    coeffs[cells] = lattice_values @ sm.invV_D.T
    return BrokenPoly(sm.space.mesh, sm.degree, coeffs)


def hat_block():
    """Vertex values -> P1 coefficients, the same (3, 3) block in every cell."""
    return np.linalg.inv(cell_basis_values(1, np.eye(3)))


def first_cell_trace(mesh):
    """P1 coefficients -> linear face coefficients of the trace, one block
    (Ei, 2, 3) per interior face, read in the face's first cell."""
    t = np.array([0.0, 1.0])
    table = np.linalg.inv(face_basis_values(1, t - 0.5)) @ cell_basis_values(
        1, face_barycentric(t))
    return on_faces(table, mesh, mesh.interior_faces, 0)


def face_bubble_sides(sm, left):
    """Per-side blocks (2, Ei, nD, p+2) of `left` B_Sigma, read from the
    reference blocks in each face's first and second cell."""
    mesh = sm.space.mesh
    table = sm._face_bubble_blocks(left)
    return np.stack([on_faces(table, mesh, mesh.interior_faces, s) for s in (0, 1)])


def face_bubble_matrix(sm, left=None):
    """`left` B_Sigma scattered into the (T nD, Ei (p+2)) matrix, each face
    from both of its cells; by default B_Sigma alone."""
    mesh = sm.space.mesh
    blocks = face_bubble_sides(sm, np.eye(sm.nD) if left is None else left)
    _, Ei, nD, nf1 = blocks.shape
    rows = mesh.face_cells[mesh.interior_faces].T[..., None] * nD + np.arange(nD)
    cols = np.arange(Ei * nf1).reshape(Ei, nf1)
    return scatter_blocks(
        blocks.reshape(2 * Ei, nD, nf1), rows.reshape(2 * Ei, nD),
        np.concatenate([cols, cols]), (mesh.num_cells * nD, Ei * nf1),
    )


def five_factor_oracle(sm):
    """S_H = F5 F4 F3 F2 F1 as sparse factors, the five steps one at a time,
    from the averaging blocks and the reference tables (the hat, the trace
    in each face's first cell, the face bubble and the cell bubble), not
    from the Smoother's per-cell blocks:

    * F1 = [R; I]: the reconstruction R x, with x carried along,
    * F2 = blockdiag(avg, I): averaging at the interior vertices,
    * F3 = blockdiag(expand, I): hat re-expansion into the T 3 P1
      coefficients of the averaged reconstruction a,
    * F4: (a, x) -> (a, v_Sigma, v_M), a padded from 3 to nD coefficients
      and the rest where needed,
    * F5 = [I | B_Sigma - B_M B_Sigma | B_M].
    """
    space = sm.space
    T, Ei, p = space.mesh.num_cells, space.mesh.num_interior_faces, space.p
    nc, n1, nD, nf1 = space.nc, space.n1, sm.nD, p + 2

    def pad(count, small, big):
        # zero-pad each of `count` coefficient blocks from `small` to `big`
        return sparse.kron(sparse.identity(count), sparse.eye(big, small)).tocsr()

    coeff_ids = np.arange(T)[:, None] * n1 + np.arange(n1)
    avg = scatter_blocks(sm.avg_blocks, sm.avg_ids, coeff_ids, (sm.num_nodes, T * n1))
    # vertex values (zero on the boundary) to broken P1 coefficients
    hat_ids = np.arange(T)[:, None] * 3 + np.arange(3)
    expand = scatter_blocks(
        np.broadcast_to(hat_block(), (T, 3, 3)), hat_ids, sm.node_ids,
        (T * 3, sm.num_nodes),
    )
    # the linear trace fills the leading two of the p+2 face coefficients
    mesh = space.mesh
    trace = scatter_blocks(
        first_cell_trace(mesh), np.arange(Ei * nf1).reshape(Ei, nf1)[:, :2],
        hat_ids[mesh.face_cells[mesh.interior_faces, 0]], (Ei * nf1, T * 3),
    )
    pad_1D = pad(T, 3, nD)
    identity = sparse.identity(space.num_dofs, format="csr")
    # block columns: a, x_M, x_Sigma
    residuals = [
        [pad_1D, None, None],
        [-trace, None, pad(Ei, space.nf, nf1)],
        [-pad_1D, pad(T, nc, nD), None],
    ]
    cell_block = sm._cell_bubble_block()
    bubbles = [sparse.identity(T * nD, format="csr"),
               face_bubble_matrix(sm, np.eye(nD) - cell_block),
               sparse.kron(sparse.identity(T), cell_block, format="csr")]
    return [
        sparse.vstack([reconstruction_oracle(space, p + 1), identity], format="csr"),
        sparse.block_diag([avg, identity], format="csr"),
        sparse.block_diag([expand, identity], format="csr"),
        sparse.bmat(residuals, format="csr"),
        sparse.hstack(bubbles, format="csr"),
    ]


def test_lagrange_basis_delta_and_partition_of_unity():
    for q in (1, 2, 3):
        bary = lattice_multis(q) / q
        vals = lagrange_basis_values(q, bary)
        assert np.allclose(vals, np.eye(len(bary)), atol=1e-13)
        rng = np.random.default_rng(0)
        pts = rng.dirichlet((1, 1, 1), size=20)
        assert np.allclose(lagrange_basis_values(q, pts).sum(axis=-1), 1.0)


def test_lagrange_interpolant_refuses_degree_below_one():
    mesh = build_unit_square(2)
    for degree in (0, -1):
        with pytest.raises(ValueError, match="degree >= 1"):
            lagrange_interpolant(mesh, degree, hat_profile)


def on_domain_boundary(mesh, points):
    """Mask of the points (..., 2) within 1e-12 of a boundary face segment."""
    ends = mesh.vertices[mesh.faces[mesh.boundary_face_mask]]  # (B, 2, 2)
    a, e = ends[:, 0], ends[:, 1] - ends[:, 0]
    d = points[..., None, :] - a  # (..., B, 2)
    t = np.clip((d * e).sum(axis=-1) / (e * e).sum(axis=-1), 0.0, 1.0)
    dist = np.linalg.norm(d - t[..., None] * e, axis=-1)
    return (dist < 1e-12).any(axis=-1)


@pytest.mark.parametrize("make", [
    lambda: build_unit_square(4), lambda: build_lshape(2), lambda: jittered_square(4),
], ids=["square", "lshape", "jittered"])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_lagrange_interpolant_zero_on_boundary_and_continuous(make, q):
    mesh = make()
    # on each mesh 10 cells touch the boundary only at a vertex, where they
    # must be zeroed too
    bface = mesh.boundary_face_mask[mesh.cell_faces].any(axis=1)
    bvert = on_domain_boundary(mesh, mesh.cell_vertices()).any(axis=1)
    assert (bvert & ~bface).sum() == 10

    def func(x):
        # NaN on the boundary: a boundary node that is evaluated instead of
        # zeroed poisons the coefficients of every cell holding it
        return np.where(on_domain_boundary(mesh, x), np.nan,
                        1.0 + x[..., 0] + np.sin(3.0 * x[..., 1]))

    coeffs = lagrange_interpolant(mesh, q, func).coeffs
    assert np.all(np.isfinite(coeffs))
    coords = np.einsum("la,tad->tld", lattice_multis(q) / q, mesh.cell_vertices())
    values = BrokenPoly(mesh, q, coeffs).values_at(coords)  # (T, L)
    boundary = on_domain_boundary(mesh, coords)
    assert boundary.any() and not boundary.all()
    assert np.abs(values[boundary]).max() <= 1e-14
    interior = coords[~boundary]
    want = 1.0 + interior[:, 0] + np.sin(3.0 * interior[:, 1])
    assert np.abs(values[~boundary] - want).max() <= 1e-13
    assert np.abs(jump_matrix(mesh, q) @ coeffs.ravel()).max() <= 1e-13


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("degree", [3, 4, 5])
def test_jump_matrix_kernel_is_the_conforming_space(n, degree):
    # broken degree-D coefficients with zero sampled jumps and boundary
    # traces must be continuous and zero on the boundary: the kernel is the
    # H1_0-conforming P^D space, one dimension per interior Lagrange node
    # (vertex, edge-interior, cell-interior). Five samples per face once
    # left a 17-dimensional kernel at D = 5 on the 1 x 1 grid.
    mesh = build_unit_square(n)
    jump = jump_matrix(mesh, degree).toarray()
    kernel = jump.shape[1] - np.linalg.matrix_rank(jump)
    boundary = np.unique(mesh.faces[mesh.boundary_face_mask])
    conforming = (mesh.num_vertices - len(boundary)
                  + (degree - 1) * mesh.num_interior_faces
                  + mesh.num_cells * (degree - 1) * (degree - 2) // 2)
    assert kernel == conforming


def test_cell_bubble_normalization_and_bounds():
    mesh = single_triangle_mesh()
    rng = np.random.default_rng(1)
    bary = rng.dirichlet((1, 1, 1), size=200)
    edge = np.array([[0.0, 0.3, 0.7], [0.5, 0.0, 0.5], [0.4, 0.6, 0.0]])
    # the closed form the Smoother tabulates, exactly
    vals = _bubbles(bary)[0]
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12)
    assert _bubbles(np.array([1 / 3, 1 / 3, 1 / 3]))[0] == pytest.approx(1.0)
    assert np.abs(_bubbles(edge)[0]).max() == 0.0
    # the degree-D polynomial the Smoother builds from its lattice table
    sm = Smoother(HHOSpace(mesh, 1))
    bubble = bubble_poly(sm, [0], sm.phiK_lat[None, :])
    vals = bubble.values_at((bary @ mesh.vertices[mesh.cells[0]])[None])
    assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
    center = bubble.values_at(mesh.cell_vertices().mean(axis=1)[:, None, :])[0, 0]
    assert center == pytest.approx(1.0, rel=1e-12)
    edge_pts = (edge @ mesh.vertices[mesh.cells[0]])[None]
    assert np.abs(bubble.values_at(edge_pts)).max() < 1e-12


def test_face_bubble_normalization_and_continuity():
    mesh = build_unit_square(1)
    sm = Smoother(HHOSpace(mesh, 0))
    f = int(mesh.interior_faces[0])
    cells = mesh.face_cells[f]
    local = [int(np.nonzero(mesh.cell_faces[k] == f)[0][0]) for k in cells]
    bubble = bubble_poly(sm, cells, sm.phiF_lat[local])
    mid = mesh.face_midpoints[f][None, None, :]
    ts = np.linspace(0.15, 0.85, 7)
    ends = mesh.vertices[mesh.faces[f]]
    pts = (ends[0] + ts[:, None] * (ends[1] - ends[0]))[None]
    # the closed form the Smoother tabulates, evaluated from each side
    exact = []
    for k, i in zip(cells, local):
        lam = mesh.barycentric_coordinates(np.array([k]), mid)[0, 0]
        assert _bubbles(lam)[1][i] == pytest.approx(1.0, abs=1e-13)
        lam = mesh.barycentric_coordinates(np.full(len(ts), k), pts[0])
        exact.append(_bubbles(lam)[1][i])
    assert np.abs(exact[0] - exact[1]).max() < 1e-13
    # the degree-D polynomials the Smoother builds from its lattice table
    for k in cells:
        val = bubble.values_at(mid, cells=np.array([k]))[0, 0]
        assert val == pytest.approx(1.0, abs=1e-13)
    # continuity at sampled points along the shared face
    v = [bubble.values_at(pts, cells=np.array([k]))[0] for k in cells]
    assert np.abs(v[0] - v[1]).max() < 1e-13


def unit_face_data(sp, p):
    """Degree-(p+1) face coefficients of the constant 1 on every interior face."""
    vS = np.zeros((sp.mesh.num_interior_faces, p + 2))
    vS[:, 0] = 1.0
    return vS.ravel()


def unit_cell_data(sm):
    """Degree-D cell coefficients of the constant 1 on every cell."""
    vD = np.zeros((sm.space.mesh.num_cells, sm.nD))
    vD[:, 0] = 1.0
    return vD.ravel()


def test_bubble_cell_p0_is_zero():
    sp = HHOSpace(build_unit_square(2), 0)
    sm = Smoother(sp)
    size = sp.mesh.num_cells * sm.nD
    out = five_factor_oracle(sm)[-1][:, -size:] @ unit_cell_data(sm)
    assert np.abs(out).max() == 0.0


def test_bubble_cell_constant_single_triangle():
    # exact barycentric integral oracle: int_K l1 l2 l3 = |K| / 60, so
    # B_K 1 = |K| / int_K Phi_K = 20/9; the lifted value at the barycenter
    # is then 20/9 since Phi_K(m_K) = 1
    mesh = single_triangle_mesh()
    sp = HHOSpace(mesh, 1)
    sm = Smoother(sp)
    coeffs = unit_cell_data(sm).reshape(-1, sm.nD) @ sm._cell_bubble_block().T
    out = BrokenPoly(mesh, sm.degree, coeffs)
    val = out.values_at(mesh.cell_vertices().mean(axis=1)[:, None, :])[0, 0]
    assert val == pytest.approx(20.0 / 9.0, rel=1e-12)


def test_bubble_cell_moment_identity():
    # int_K q (B_K v) Phi_K = int_K q v for all q in P^{p-1}, random degree-D v
    rng = np.random.default_rng(5)
    for p in (1, 2):
        sp = HHOSpace(build_unit_square(2), p)
        sm = Smoother(sp)
        v = BrokenPoly(sp.mesh, sm.degree,
                       rng.standard_normal((sp.mesh.num_cells, sm.nD)))
        out = BrokenPoly(sp.mesh, sm.degree, v.coeffs @ sm._cell_bubble_block().T)
        rule = quad_for_degree(2, 16)
        pts, w = cell_quadrature(sp.mesh, rule)
        q = cell_basis_values(p - 1, rule.points)
        resid = np.einsum("tq,qm,tq->tm", w, q,
                          out.values_at(pts) - v.values_at(pts))
        assert np.abs(resid).max() < 1e-11


def test_bubble_face_constant_value_three_halves():
    # 1d exact integral oracle: int_0^1 4 t (1-t) dt = 2/3, so the trace of
    # (B_F 1) Phi_F at the face midpoint is (1 / (2/3)) * 1 = 3/2
    sp = HHOSpace(build_unit_square(1), 0)
    sm = Smoother(sp)
    coeffs = face_bubble_matrix(sm) @ unit_face_data(sp, 0)
    out = BrokenPoly(sp.mesh, sm.degree, coeffs.reshape(-1, sm.nD))
    f = int(sp.mesh.interior_faces[0])
    mid = sp.mesh.face_midpoints[f][None, None, :]
    for k in sp.mesh.face_cells[f]:
        val = out.values_at(mid, cells=np.array([k]))[0, 0]
        assert val == pytest.approx(1.5, rel=1e-12)


def test_bubble_face_zero_and_conformity():
    rng = np.random.default_rng(8)
    for p in (0, 1, 2):
        sp = HHOSpace(build_unit_square(2), p)
        sm = Smoother(sp)
        face_bubble = face_bubble_matrix(sm)
        assert np.abs(face_bubble @ np.zeros(face_bubble.shape[1])).max() == 0.0
        out = face_bubble @ rng.standard_normal(face_bubble.shape[1])
        assert max_jump(sm, out) < 1e-11


def test_bubble_face_moment_identity():
    # int_F q (B_F v) = int_F q v for all q in P^p(F), random degree-(p+1) v
    rng = np.random.default_rng(6)
    for p in (0, 1, 2):
        sp = HHOSpace(build_unit_square(2), p)
        sm = Smoother(sp)
        faces = sp.mesh.interior_faces
        vS = rng.standard_normal((len(faces), p + 2))
        coeffs = face_bubble_matrix(sm) @ vS.ravel()
        out = BrokenPoly(sp.mesh, sm.degree, coeffs.reshape(-1, sm.nD))
        rule = quad_for_degree(1, 16)
        pts, w = face_quadrature(sp.mesh, rule, faces)
        psi = face_basis_values(p + 1, rule.points[:, 1] - 0.5)
        v = np.einsum("qm,fm->fq", psi, vS)
        k1 = sp.mesh.face_cells[faces, 0]
        resid = np.einsum(
            "fq,qm,fq->fm", w, psi[..., : p + 1], out.values_at(pts, cells=k1) - v
        )
        assert np.abs(resid).max() < 1e-11


def test_bubble_smoother_zero_pair():
    # the last factor maps (a, 0, 0) to a: no correction without residuals
    sp = HHOSpace(build_unit_square(2), 1)
    sm = Smoother(sp)
    F5 = five_factor_oracle(sm)[-1]
    size = sp.mesh.num_cells * sm.nD
    assert np.abs(F5 @ np.zeros(F5.shape[1])).max() == 0.0
    a = np.random.default_rng(2).standard_normal(size)
    assert np.array_equal(F5 @ np.concatenate([a, np.zeros(F5.shape[1] - size)]), a)


def test_bubble_smoother_unit_pair_moments():
    # p=1 on the 2-triangle mesh, v_M = v_Sigma = 1: both moment families
    sp = HHOSpace(build_unit_square(1), 1)
    sm = Smoother(sp)
    size = sp.mesh.num_cells * sm.nD
    vM = np.zeros((sp.mesh.num_cells, sm.nD))
    vM[:, 0] = 1.0
    x = np.concatenate([np.zeros(size), unit_face_data(sp, 1), vM.ravel()])
    coeffs = five_factor_oracle(sm)[-1] @ x
    out = BrokenPoly(sp.mesh, sm.degree, coeffs.reshape(-1, sm.nD))
    rule = quad_for_degree(2, 12)
    pts, w = cell_quadrature(sp.mesh, rule)
    cells_q = cell_basis_values(0, rule.points)
    resid = np.einsum("tq,qm,tq->tm", w, cells_q, out.values_at(pts) - 1.0)
    assert np.abs(resid).max() < 1e-11
    faces = sp.mesh.interior_faces
    frule = quad_for_degree(1, 12)
    fpts, fw = face_quadrature(sp.mesh, frule, faces)
    psi = face_basis_values(1, frule.points[:, 1] - 0.5)
    k1 = sp.mesh.face_cells[faces, 0]
    fresid = np.einsum(
        "fq,qm,fq->fm", fw, psi, out.values_at(fpts, cells=k1) - 1.0
    )
    assert np.abs(fresid).max() < 1e-11
    assert max_jump(sm, coeffs) < 1e-11


def test_bubble_smoother_local_stability_ratio_bounded():
    # measured version of the local H1 bound for random degree-D cell data
    # and degree-(p+1) face data; the constant is unspecified in theory, so
    # only boundedness across refinements is asserted
    rng = np.random.default_rng(4)
    ratios = []
    mesh = build_unit_square(2)
    for _ in range(3):
        sp = HHOSpace(mesh, 1)
        sm = Smoother(sp)
        v_m = BrokenPoly(mesh, sm.degree,
                         rng.standard_normal((mesh.num_cells, sm.nD)))
        v_s = np.zeros((mesh.num_faces, sp.p + 2))  # zero on boundary faces
        v_s[mesh.interior_faces] = rng.standard_normal(
            (mesh.num_interior_faces, sp.p + 2))
        # the last factor applied to (0, v_Sigma, v_M)
        x = np.concatenate([
            np.zeros(mesh.num_cells * sm.nD),
            v_s[mesh.interior_faces].ravel(),
            v_m.coeffs.ravel(),
        ])
        F5 = five_factor_oracle(sm)[-1]
        out = BrokenPoly(mesh, sm.degree, (F5 @ x).reshape(-1, sm.nD))
        pts, w = cell_quadrature(mesh, sp.rule_cell)
        grad_norm = np.sqrt(np.einsum("tq,tqd->t", w, out.gradients_at(pts) ** 2))
        vm_norm = np.sqrt(np.einsum("tq,tq->t", w, v_m.values_at(pts) ** 2))
        scale = vm_norm / mesh.h_cell
        for i in range(3):
            faces_i = mesh.cell_faces[:, i]
            fpts, fw = face_quadrature(mesh, sp.rule_face, faces_i)
            psi = face_basis_values(sp.p + 1, sp.rule_face.points[:, 1] - 0.5)
            vals = np.einsum("qm,fm->fq", psi, v_s[faces_i])
            fnorm = np.sqrt(np.einsum("fq,fq->f", fw, vals ** 2))
            scale = scale + fnorm / np.sqrt(mesh.h_face[faces_i])
        ratios.append((grad_norm / scale).max())
        mesh = refine_red(mesh)
    assert max(ratios) < 3.0 * min(ratios) + 1.0


def test_nodal_average_is_arithmetic_mean():
    # center vertex of the 2x2 grid belongs to 6 triangles; feeding per-cell
    # constants 1..6 must average to 3.5 at that vertex
    mesh = build_unit_square(2)
    sp = HHOSpace(mesh, 0)
    sm = Smoother(sp)
    center = int(np.argmin(np.abs(mesh.vertices - 0.5).sum(axis=1)))
    cells = np.nonzero((mesh.cells == center).any(axis=1))[0]
    assert len(cells) == 6
    coeffs = np.zeros((mesh.num_cells, sp.n1, 1))
    coeffs[cells, 0, 0] = np.arange(1.0, 7.0)
    # the averaging blocks summed at avg_ids, re-expanded by the hat matrix
    nodal = scatter_add(sm.avg_blocks @ coeffs, sm.avg_ids, sm.num_nodes)
    avg = BrokenPoly(mesh, 1, (hat_block() @ _gather(nodal, sm.node_ids))[..., 0])
    vals = avg.values_at(np.full((mesh.num_cells, 1, 2), 0.5))[cells, 0]
    assert vals == pytest.approx(np.full(6, 3.5), rel=1e-13)


def averaged_reconstruction(sm, X):
    """The averaged reconstruction a: the leading T 3 rows of F3 F2 F1 X,
    as broken P1 coefficients (T, 3, k)."""
    F1, F2, F3 = five_factor_oracle(sm)[:3]
    T = sm.space.mesh.num_cells
    return (F3 @ (F2 @ (F1 @ X)))[: T * 3].reshape(T, 3, -1)


def test_averaging_reproduces_continuous_reconstructions():
    # on a continuous reconstruction the averaged reconstruction is its P1
    # vertex interpolant, whatever the vertex rule
    for p in (0, 1, 2):
        sp = HHOSpace(build_unit_square(2), p)
        q = lagrange_interpolant(sp.mesh, p + 1, hat_profile)
        X = np.stack([sp.interpolate(q), np.zeros(sp.num_dofs)], axis=1)
        corners = sp.mesh.cell_vertices()
        for variant in AVERAGING_VARIANTS:
            a = averaged_reconstruction(Smoother(sp, averaging=variant), X)
            got = BrokenPoly(sp.mesh, 1, a[..., 0]).values_at(corners)
            assert np.abs(got - q.values_at(corners)).max() < 1e-11
            assert np.abs(a[..., 1]).max() == 0.0


def test_smoother_reproduces_conforming_interpolants():
    for p in (0, 1, 2):
        sp = HHOSpace(build_unit_square(4), p)
        sm = Smoother(sp)
        q = lagrange_interpolant(sp.mesh, p + 1, hat_profile)
        out = sm.apply_vector(sp.interpolate(q))
        out = out.reshape(sp.mesh.num_cells, sm.nD)
        assert np.abs(out[:, : sp.n1] - q.coeffs).max() < 1e-10
        assert np.abs(out[:, sp.n1:]).max() < 1e-10


def test_smoother_moment_preservation_random_fields():
    rng = np.random.default_rng(123)
    for p in (0, 1, 2):
        sp = HHOSpace(build_unit_square(3), p)
        for variant in ("mean", "scott-zhang"):
            sm = Smoother(sp, averaging=variant)
            X = rng.standard_normal((20, sp.num_dofs)).T
            cell_res, face_res = moment_residuals(sm, X)
            assert cell_res.shape == face_res.shape == (20,)
            assert cell_res.max() < 1e-11 and face_res.max() < 1e-11


class _ShiftedSmoother:
    """A smoother whose output is moved by a fixed dense map, so that the
    preserved moments break by O(1) amounts."""

    def __init__(self, smoother, shift):
        self.space, self.nD, self.degree = smoother.space, smoother.nD, smoother.degree
        self._smoother, self._shift = smoother, shift

    def apply_vector(self, vec):
        return self._smoother.apply_vector(vec) + self._shift @ vec


def test_moment_residuals_batch_matches_per_field_loop():
    rng = np.random.default_rng(9)
    for p in (0, 1, 2):
        sp = HHOSpace(build_unit_square(3), p)
        for variant in ("mean", "scott-zhang"):
            sm = Smoother(sp, averaging=variant)
            shift = rng.standard_normal((sp.mesh.num_cells * sm.nD, sp.num_dofs))
            shifted = _ShiftedSmoother(sm, 1e-3 * shift)
            X = rng.standard_normal((6, sp.num_dofs)).T
            cell_res, face_res = moment_residuals(shifted, X)
            assert face_res.min() > 1e-4 and (p == 0 or cell_res.min() > 1e-4)
            for j in range(X.shape[1]):
                cell_j, face_j = moment_residuals(shifted, X[:, j:j + 1])
                assert cell_j[0] == pytest.approx(cell_res[j], rel=1e-12, abs=0)
                assert face_j[0] == pytest.approx(face_res[j], rel=1e-12, abs=0)
            empty = moment_residuals(sm, np.empty((sp.num_dofs, 0)))
            assert empty[0].shape == empty[1].shape == (0,)


def test_smoother_conformity_random_fields():
    rng = np.random.default_rng(5)
    for p in (0, 1, 2):
        sp = HHOSpace(build_unit_square(3), p)
        sm = Smoother(sp)
        for _ in range(3):
            out = sm.apply_vector(rng.standard_normal(sp.num_dofs))
            assert max_jump(sm, out) < 1e-10


def test_smoother_orthogonality_consistency():
    for p in (0, 1, 2):
        sp = HHOSpace(build_unit_square(3), p)
        for variant in ("mean", "scott-zhang"):
            sm = Smoother(sp, averaging=variant)
            assert orthogonality_residual(sm) < 1e-10


def test_smoother_locality_one_ring():
    # the smoothed image of a basis field touches only cells meeting the
    # closure of its supporting entity
    sp = HHOSpace(build_unit_square(4), 1)
    sm = Smoother(sp)
    mesh = sp.mesh
    M = sm.matrix.tocsc()
    vertex_sets = [set(mesh.cells[t]) for t in range(mesh.num_cells)]

    def allowed_cells(entity_vertices):
        return {
            t for t, vs in enumerate(vertex_sets) if vs & set(entity_vertices)
        }

    rng = np.random.default_rng(0)
    for dof in rng.choice(sp.num_dofs, size=12, replace=False):
        col = M[:, int(dof)].toarray().ravel()
        # sparse products leave explicit ~1e-15 entries; they are not support
        rows = np.nonzero(np.abs(col) > 1e-12)[0]
        touched = set(np.unique(rows // sm.nD))
        if dof < sp.num_cell_dofs:
            support_cells = [dof // sp.nc]
        else:
            fi = (dof - sp.num_cell_dofs) // sp.nf
            support_cells = mesh.face_cells[mesh.interior_faces[fi]]
        ring_vertices = set(np.concatenate([mesh.cells[k] for k in support_cells]))
        assert touched <= allowed_cells(ring_vertices)


def test_scott_zhang_variant_contracts():
    rng = np.random.default_rng(77)
    sp = HHOSpace(build_unit_square(2), 1)
    mean = Smoother(sp, averaging="mean")
    sz = Smoother(sp, averaging="scott-zhang")
    q = lagrange_interpolant(sp.mesh, 2, hat_profile)
    X = np.stack([sp.interpolate(q), rng.standard_normal(sp.num_dofs)], axis=1)
    a_mean = averaged_reconstruction(mean, X)
    a_sz = averaged_reconstruction(sz, X)
    # same contract on continuous reconstructions
    assert np.abs(a_sz[..., 0] - a_mean[..., 0]).max() < 1e-11
    # generally different on discontinuous reconstructions
    assert np.abs(a_sz[..., 1] - a_mean[..., 1]).max() > 1e-6
    # smoothed output remains conforming
    assert max_jump(sz, sz.apply_vector(X[:, 1])) < 1e-10


def test_unknown_variant_rejected():
    sp = HHOSpace(build_unit_square(1), 0)
    with pytest.raises(ValueError):
        Smoother(sp, averaging="median")


def test_consistency_constant_stable_across_refinements():
    values = []
    mesh = build_unit_square(2)
    for _ in range(3):
        sp = HHOSpace(mesh, 1)
        values.append(consistency_constant(sp, Smoother(sp)))
        mesh = refine_red(mesh)
    spread = (max(values) - min(values)) / min(values)
    assert spread < 0.25


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("make", [
    lambda: build_unit_square(8), lambda: jittered_square(4),
    lambda: build_lshape(2), single_triangle_mesh,
], ids=["square8", "jittered", "lshape", "single"])
def test_consistency_constant_matches_dense_eigh(make, p):
    # C_H^2 is the largest eigenvalue of the pencil (D^T K D, B), D = R_D - S_H,
    # here from a dense generalized eigh (the lone p = 0 triangle has one dof
    # and R = 0, so both are exactly 0)
    sp = HHOSpace(make(), p)
    sm = Smoother(sp)
    D = (reconstruction_oracle(sp, sm.degree).toarray()
         - sm.apply_vector(np.eye(sp.num_dofs)))
    K = dense_broken_stiffness(sp, sm.degree)
    B = assemble(sp).full_matrix.toarray()
    want = np.sqrt(max(eigh(D.T @ K @ D, B, eigvals_only=True)[-1], 0.0))
    assert abs(consistency_constant(sp, sm) - want) <= 1e-9 * want


def test_consistency_constant_assembles_no_smoother_matrix():
    # the constant needs only products with the smoother's blocks
    sp = HHOSpace(build_unit_square(3), 1)
    sm = Smoother(sp)
    assert consistency_constant(sp, sm) > 0.0
    assert sm._matrix is None


@pytest.mark.parametrize("variant", AVERAGING_VARIANTS)
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_factor_list_forward_transpose_and_matrix_agree(p, variant):
    # the forward map and its transpose contract the blocks, the matrix is
    # scattered from them; all three must
    # describe the same operator
    sp = HHOSpace(build_unit_square(3), p)
    sm = Smoother(sp, averaging=variant)
    rng = np.random.default_rng(p)
    x = rng.standard_normal(sp.num_dofs)
    y = rng.standard_normal(sp.mesh.num_cells * sm.nD)
    sx = sm.apply_vector(x)
    forward, backward = y @ sx, sm.apply_transpose(y) @ x
    assert abs(forward - backward) <= 1e-12 * abs(forward)
    assert np.abs(sm.matrix @ x - sx).max() <= 1e-12 * np.abs(sx).max()


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("variant", AVERAGING_VARIANTS)
@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("make", [
    lambda: jittered_square(4), lambda: build_lshape(2), single_triangle_mesh,
], ids=["jittered", "lshape", "single"])
def test_matrix_free_apply_matches_factor_product(make, p, variant):
    # apply_vector and apply_transpose contract the per-cell blocks; the
    # five-factor oracle is scattered from the reference tables. On a vector
    # and on a block of three, both evaluations must give the same operator
    # and its transpose
    # (the single triangle has no interior face and, at p = 0, no interior
    # Lagrange node)
    sp = HHOSpace(make(), p)
    sm = Smoother(sp, averaging=variant)
    rng = np.random.default_rng(p)
    X = rng.standard_normal((sp.num_dofs, 3))
    Y = rng.standard_normal((sp.mesh.num_cells * sm.nD, 3))
    factors = five_factor_oracle(sm)
    for x, y in ((X[:, 0], Y[:, 0]), (X, Y)):
        want = x
        for factor in factors:
            want = factor @ want
        _assert_close(sm.apply_vector(x), want)
        want = y
        for factor in reversed(factors):
            want = factor.T @ want
        _assert_close(sm.apply_transpose(y), want)


@pytest.mark.parametrize("variant", AVERAGING_VARIANTS)
@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("make", [
    lambda: jittered_square(4), lambda: build_lshape(2), single_triangle_mesh,
], ids=["jittered", "lshape", "single"])
def test_matrix_matches_dense_apply_and_five_factor_oracle(make, p, variant):
    # the one-pass C + Q W scatter against S_H probed on the identity and
    # against the product of the five factors
    sm = Smoother(HHOSpace(make(), p), averaging=variant)
    got = sm.matrix.toarray()
    _assert_close(got, sm.apply_vector(np.eye(sm.space.num_dofs)))
    product = np.eye(sm.space.num_dofs)
    for factor in five_factor_oracle(sm):
        product = factor @ product
    _assert_close(got, product)


def dense_factor_oracle(sm):
    """Dense C and Q of S_H = C + Q W from the five-factor oracle: F5 F4 F3
    maps (vertex values, dofs) to broken coefficients, and F2 F1 x = (W x, x)."""
    F3, F4, F5 = five_factor_oracle(sm)[2:]
    M = (F5 @ F4 @ F3).toarray()
    return M[:, sm.num_nodes:], M[:, :sm.num_nodes]


def dense_scatter(blocks, row_ids, col_ids, shape):
    """Dense sum of blocks (B, r, c) at rows row_ids[b] and columns
    col_ids[b], entries with a negative id dropped."""
    out = np.zeros(shape)
    for block, rows, cols in zip(blocks, row_ids, col_ids):
        r, c = rows >= 0, cols >= 0
        out[np.ix_(rows[r], cols[c])] += block[np.ix_(r, c)]
    return out


def planted_defects(sm, rng):
    """(name, copy of sm with its C or its Q columns moved by O(1), the
    dense moves (dC, dQ) of the two factors, whether the move enters a
    factor on this mesh): first the C columns (the shared cell columns and
    each cell's face columns), then the Q columns. The single triangle has
    no interior vertex, so its Q columns enter no factor."""
    sp = sm.space
    T, nD, nc, nloc = sp.mesh.num_cells, sm.nD, sp.nc, sp.nloc
    rows = np.arange(T)[:, None] * nD + np.arange(nD)
    cell = rng.standard_normal(sm.cell_columns.shape)
    face = rng.standard_normal((T, nD, nloc - nc))
    defect = copy.copy(sm)
    defect.cell_columns = sm.cell_columns + cell
    defect.blocks = sm.blocks.copy()
    defect.blocks[..., :-3] += face
    noise = np.concatenate([np.broadcast_to(cell, (T, nD, nc)), face], axis=2)
    move = dense_scatter(noise, rows, sp.local_dof_ids, (T * nD, sp.num_dofs))
    yield "C", defect, (move, 0.0), True
    noise = rng.standard_normal((T, nD, 3))
    defect = copy.copy(sm)
    defect.blocks = sm.blocks.copy()
    defect.blocks[..., -3:] += noise
    move = dense_scatter(noise, rows, sm.node_ids, (T * nD, sm.num_nodes))
    yield "Q", defect, (0.0, move), sm.num_nodes > 0


FACTOR_MESHES = pytest.mark.parametrize("make", [
    lambda: jittered_square(4), lambda: build_lshape(2), single_triangle_mesh,
], ids=["jittered", "lshape", "single"])


@pytest.mark.parametrize("variant", AVERAGING_VARIANTS)
@pytest.mark.parametrize("p", [0, 1, 2, 3])
@FACTOR_MESHES
def test_orthogonality_residual_matches_dense_oracle(make, p, variant):
    # per cell K, dense R_K^T K_K (R_K - C_K) and R_K^T K_K Q_K, the split
    # identity, with R_K, C_K and Q_K the rows of K and the columns of its
    # dofs and vertices in the dense R_D and in C and Q from the five-factor
    # oracle. On the smoother both are round-off, so the comparison is
    # repeated with the C and then the Q columns of the cell blocks moved,
    # and the oracle moved alike, which makes the maximum entry O(1)
    sp = HHOSpace(make(), p)
    sm = Smoother(sp, averaging=variant)
    RD = reconstruction_oracle(sp, sm.degree).toarray()
    K = stiffness_blocks(sp.mesh, reference_stiffness(sm.degree, sp.rule_cell))
    scale = np.abs(RD.T @ block_diag(*K) @ RD).max()

    oracle = dense_factor_oracle(sm)

    def want(dC, dQ):
        C, Q = oracle[0] + dC, oracle[1] + dQ
        out = 0.0
        for k, (dofs, nodes) in enumerate(zip(sp.local_dof_ids, sm.node_ids)):
            rows = slice(k * sm.nD, (k + 1) * sm.nD)
            dofs, nodes = dofs[dofs >= 0], nodes[nodes >= 0]
            R_K = RD[rows][:, dofs]
            RtK = R_K.T @ K[k]
            out = max(out, np.abs(RtK @ (R_K - C[rows][:, dofs])).max(),
                      np.abs(RtK @ Q[rows][:, nodes]).max(initial=0.0))
        return out

    assert want(0.0, 0.0) <= 1e-10
    rng = np.random.default_rng(p)
    for name, smoother, moves, enters in [("none", sm, (0.0, 0.0), False),
                                          *planted_defects(sm, rng)]:
        expected = want(*moves)
        got = orthogonality_residual(smoother)
        assert abs(got - expected) <= 1e-12 * scale, name
        # the lone p = 0 triangle has R = 0, and both residuals are exactly 0
        assert expected > 1e-3 * scale or not enters or scale == 0.0, name


@pytest.mark.parametrize("p", [0, 3])
def test_orthogonality_residual_over_cell_blocks(monkeypatch, p):
    # the check runs over blocks of CELL_BLOCK cells, each reading its rows
    # of the cell table; with blocks of 5 (7 blocks on 32 cells, the last
    # one partial) the table and the residual, on the smoother and with a
    # planted defect, equal those of one block bitwise
    sm = Smoother(HHOSpace(jittered_square(4), p))
    cases = [sm, *(defect for _, defect, _, _ in
                   planted_defects(sm, np.random.default_rng(p)))]
    table, ids = sm.cell_table()
    one_block = [orthogonality_residual(case) for case in cases]
    monkeypatch.setattr(hho.local_ops, "CELL_BLOCK", 5)
    blocks = hho.local_ops.cell_blocks(sm.space.mesh.num_cells)
    assert len(blocks) == 7
    parts = [sm.cell_table(c) for c in blocks]
    assert np.array_equal(np.concatenate([t for t, _ in parts]), table)
    assert np.array_equal(np.concatenate([i for _, i in parts]), ids)
    assert [orthogonality_residual(case) for case in cases] == one_block


@pytest.mark.parametrize("variant", AVERAGING_VARIANTS)
@pytest.mark.parametrize("p", [0, 1, 2, 3])
@FACTOR_MESHES
def test_conformity_residual_matches_dense_oracle(make, p, variant):
    # the sampled jumps and boundary traces of every column of the dense C
    # and Q, on the smoother and with the C and then the Q columns of the
    # cell blocks moved
    sp = HHOSpace(make(), p)
    sm = Smoother(sp, averaging=variant)
    jump = jump_matrix(sp.mesh, sm.degree)

    oracle = dense_factor_oracle(sm)

    def want(dC, dQ):
        # the largest sampled jump, and its bound sum |terms| as the scale
        factors = (oracle[0] + dC, oracle[1] + dQ)
        return (max(np.abs(jump @ M).max(initial=0.0) for M in factors),
                max((abs(jump) @ np.abs(M)).max(initial=0.0) for M in factors))

    assert want(0.0, 0.0)[0] <= 1e-10
    rng = np.random.default_rng(p)
    for name, smoother, moves, enters in [("none", sm, (0.0, 0.0), False),
                                          *planted_defects(sm, rng)]:
        expected, scale = want(*moves)
        got = conformity_residual(smoother)
        assert abs(got - expected) <= 1e-12 * scale, name
        assert expected > 1e-3 * scale or not enters, name


def test_converge_path_assembles_no_smoother_factor(monkeypatch):
    # the smoothed load needs S_H^T on one vector: neither a converge run nor
    # a direct pullback may scatter the sparse matrix
    sp = HHOSpace(build_unit_square(3), 2)
    sm = Smoother(sp)
    rhs_smoothed(sp, sm, get_case("smooth-sine", 2).load)
    assert sm._matrix is None

    def refuse(*args, **kwargs):
        raise AssertionError("a smoother factor was assembled")

    monkeypatch.setattr(hho.smoothing, "scatter_blocks", refuse)
    report = run_convergence(get_case("smooth-sine", 1), 1, [2, 4], method="smoothed")
    assert len(report.rows) == 2


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(0, 3),
       variant=st.sampled_from(AVERAGING_VARIANTS))
def test_transpose_is_adjoint_on_jittered_meshes(seed, p, variant):
    # <S_H x, y> = <x, S_H^T y> on a randomly jittered mesh
    sp = HHOSpace(jittered_square(3, seed=seed), p)
    sm = Smoother(sp, averaging=variant)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(sp.num_dofs)
    y = rng.standard_normal(sp.mesh.num_cells * sm.nD)
    forward, backward = y @ sm.apply_vector(x), sm.apply_transpose(y) @ x
    assert abs(forward - backward) <= 1e-12 * abs(forward)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cell_bubble_and_broken_stiffness_match_einsum(p):
    # per-cell oracle: tables at each cell's physical quadrature points and
    # lattice nodes, and one Vandermonde inverse per cell
    sp = HHOSpace(jittered_square(4), p)
    sm = Smoother(sp)
    mesh, D = sp.mesh, sm.degree
    pts, w = cell_quadrature(mesh, sp.rule_cell)

    phiK_q, _ = _bubbles(sp.rule_cell.points)
    phi_pm1 = basis_at(mesh, p - 1, pts)[0]
    phiD = basis_at(mesh, D, pts)[0]
    W = np.einsum("tq,q,tqm,tqn->tmn", w, phiK_q, phi_pm1, phi_pm1)
    mom = np.einsum("tq,tqm,tqn->tmn", w, phi_pm1, phiD)
    lat_coords = np.einsum("la,tad->tld", sm.lat_bary, mesh.cell_vertices())
    lat = basis_at(mesh, p - 1, lat_coords)[0] * sm.phiK_lat[None, :, None]
    invV_D = np.linalg.inv(basis_at(mesh, D, lat_coords)[0])
    want = invV_D @ lat @ np.linalg.solve(W, mom)
    got = sm._cell_bubble_block()
    scale = np.abs(want).max(axis=(1, 2))
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * scale)

    grads = basis_at(mesh, D, pts)[1]
    want = np.einsum("tq,tqid,tqjd->tij", w, grads, grads)
    got = stiffness_blocks(mesh, reference_stiffness(D, sp.rule_cell))
    scale = np.abs(want).max(axis=(1, 2))
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * scale)


def relabelled(mesh, seed=0):
    """The same mesh with its vertices numbered in a random order."""
    perm = np.random.default_rng(seed).permutation(mesh.num_vertices)
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    return SimplicialMesh(verts, perm[mesh.cells])


def lattice_node_keys(mesh, degree):
    """Global ids (T, L) of the degree-`degree` lattice nodes of every cell
    and the id of each key: a node is keyed by its sorted (global vertex id,
    lattice weight) pairs with nonzero weight, the same from every cell
    holding it."""
    multis = lattice_multis(degree)
    table = {}
    ids = np.empty((mesh.num_cells, len(multis)), dtype=np.int64)
    for t, cell in enumerate(mesh.cells.tolist()):
        for l, nu in enumerate(multis.tolist()):
            key = tuple(sorted((v, w) for v, w in zip(cell, nu) if w))
            ids[t, l] = table.setdefault(key, len(table))
    return ids, table


def reference_face_bubble_matrix(sm):
    """Dense B_Sigma by the gid-matching construction, as the reference.

    p >= 1: the degree-p face nodes of face F = (lo, hi) are keyed by their
    (global vertex id, lattice weight) pairs, node j having weight p - j at
    lo and j at hi, and each face node is found in the adjacent cell's
    lattice by matching keys. p = 0: the face bubble times the single face
    coefficient.
    """
    sp, mesh = sm.space, sm.space.mesh
    p, nD = sp.p, sm.nD
    faces = mesh.interior_faces
    Ei = len(faces)
    mass = reference_face_mass(p + 1)
    beta_mat = np.linalg.inv(mass[:-1, :-1] - 4.0 * mass[1:, 1:]) @ mass[:-1, :]
    if p >= 1:
        cell_nodes, table = lattice_node_keys(mesh, p)
        gids_f = np.array([
            [table[tuple((v, w) for v, w in ((lo, p - j), (hi, j)) if w)]
             for j in range(p + 1)]
            for lo, hi in mesh.faces[faces].tolist()
        ])
        lp_lat = lagrange_basis_values(p, sm.lat_bary)
        s_nodes = np.arange(p + 1) / p - 0.5
        nodal_mat = (s_nodes[:, None] ** np.arange(p + 1)) @ beta_mat
    dense = np.zeros((mesh.num_cells * nD, Ei * (p + 2)))
    cols = np.arange(Ei * (p + 2)).reshape(Ei, p + 2)
    for side in (0, 1):
        K = mesh.face_cells[faces, side]
        il = np.argmax(mesh.cell_faces[K] == faces[:, None], axis=1)
        phiF = sm.phiF_lat[il]
        if p == 0:
            coeff = phiF @ sm.invV_D.T
            blocks = coeff[:, :, None] * beta_mat[0][None, None, :]
        else:
            match = cell_nodes[K][:, :, None] == gids_f[:, None, :]
            assert np.all(match.sum(axis=1) == 1)
            lpos = np.argmax(match, axis=1)
            zvals = lp_lat[:, lpos].transpose(1, 0, 2) * phiF[:, :, None]
            blocks = sm.invV_D @ zvals @ nodal_mat
        rows = K[:, None] * nD + np.arange(nD)
        dense[rows[:, :, None], cols[:, None, :]] = blocks
    return dense


@pytest.mark.parametrize("make", [
    lambda: jittered_square(4), lambda: relabelled(jittered_square(4)),
], ids=["jittered", "relabelled"])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_face_bubble_matrix_matches_gid_matching(p, make):
    mesh = make()
    # both orientations occur: the face's higher global vertex sits at local
    # vertex il+1 in some adjacent cells and at il+2 in others
    faces = mesh.interior_faces
    K = mesh.face_cells[faces].ravel()
    F = np.repeat(faces, 2)
    il = np.argmax(mesh.cell_faces[K] == F[:, None], axis=1)
    hi = np.argmax(mesh.cells[K] == mesh.faces[F, 1][:, None], axis=1)
    assert set((hi - il) % 3) == {1, 2}

    sm = Smoother(HHOSpace(mesh, p))
    got = face_bubble_matrix(sm).toarray()
    want = reference_face_bubble_matrix(sm)
    if p >= 1:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_factor_blocks_same_for_every_degree(p):
    # F4 always carries (a, v_Sigma, v_M), a read as T 3 P1 coefficients,
    # and F5 always reads all three; at p = 0 B_M is zero (P^{-1} = {0})
    # rather than left out
    sp = HHOSpace(build_unit_square(2), p)
    sm = Smoother(sp)
    T, Ei = sp.mesh.num_cells, sp.mesh.num_interior_faces
    blocks = [T * sm.nD, Ei * (p + 2), T * sm.nD]
    F4, F5 = five_factor_oracle(sm)[3:]
    assert F4.shape == (sum(blocks), T * 3 + sp.num_dofs)
    assert F5.shape == (T * sm.nD, sum(blocks))
    cell_bubble = F5[:, -blocks[2]:]
    assert (cell_bubble.nnz == 0) == (p == 0)
    assert (np.abs(sm._cell_bubble_block()).max() == 0.0) == (p == 0)
    # the middle block is B_Sigma - B_M B_Sigma, with B_M the cell block on
    # every cell
    face_bubble = face_bubble_matrix(sm).toarray()
    cell_bubble = np.kron(np.eye(T), sm._cell_bubble_block())
    want = face_bubble - cell_bubble @ face_bubble
    got = F5[:, blocks[0]: blocks[0] + blocks[1]].toarray()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    k = 4
    rng = np.random.default_rng(p)
    cell_res, face_res = moment_residuals(sm, rng.standard_normal((k, sp.num_dofs)).T)
    assert cell_res.shape == face_res.shape == (k,)
    if p == 0:
        assert np.array_equal(cell_res, np.zeros(k))


def nodal_averaging_oracle(sm, X):
    """S_H X with the averaging at every interior degree-(p+1) Lagrange node
    (X a (num_dofs, k) block), as the reference for the vertex averaging.

    The global nodes are keyed by sorted (vertex id, lattice weight) pairs; a
    node is on the boundary when its only vertex is on a boundary face or its
    two vertices span one. The averaged degree-(p+1) reconstruction is
    interpolated at the lattice, its trace at p+2 points of each face, and
    S_H is finished with the reference bubble blocks, each face read from
    both of its cells.
    """
    sp, mesh = sm.space, sm.space.mesh
    p, T, nc, nf, n1 = sp.p, mesh.num_cells, sp.nc, sp.nf, sp.n1
    keys, table = lattice_node_keys(mesh, p + 1)
    bfaces = {tuple(f) for f in mesh.faces[mesh.boundary_face_mask].tolist()}
    bverts = {v for f in bfaces for v in f}
    boundary = np.zeros(len(table), dtype=bool)
    for key, gid in table.items():
        vs = tuple(v for v, _ in key)
        boundary[gid] = vs in bfaces if len(vs) == 2 else (
            len(vs) == 1 and vs[0] in bverts)
    counts = np.bincount(keys.ravel())
    first = np.full(len(table), T)
    np.minimum.at(first, keys, np.arange(T)[:, None])
    if sm.averaging_variant == "mean":
        weight = 1.0 / counts[keys]
    else:
        weight = (np.arange(T)[:, None] == first[keys]).astype(float)

    V1 = cell_basis_values(p + 1, lattice_multis(p + 1) / (p + 1))
    r = sp.G @ sp.local_coeffs(X)  # (T, n1, k)
    nodal = np.zeros((len(table), X.shape[1]))
    np.add.at(nodal, keys, weight[..., None] * (V1 @ r))
    nodal[boundary] = 0.0
    a = np.linalg.solve(V1, nodal[keys])  # (T, n1, k)

    t = np.linspace(0.0, 1.0, p + 2)
    trace_hat = np.linalg.solve(
        face_basis_values(p + 1, t - 0.5), cell_basis_values(p + 1, face_barycentric(t))
    )
    faces = mesh.interior_faces
    face_cells = mesh.face_cells[faces].T  # (2, Ei): first, second
    x_cells, x_faces = sp.split(X)
    v_faces = -(on_faces(trace_hat, mesh, faces, 0) @ a[face_cells[0]])
    v_faces[:, :nf] += x_faces
    v_cells = np.zeros((T, sm.nD, X.shape[1]))
    v_cells[:, :nc] = x_cells
    v_cells[:, :n1] -= a
    cell_block = sm._cell_bubble_block()
    out = cell_block @ v_cells
    out[:, :n1] += a
    face_bubble = face_bubble_sides(sm, np.eye(sm.nD) - cell_block)
    for side in (0, 1):
        np.add.at(out, face_cells[side], face_bubble[side] @ v_faces)
    return out.reshape(T * sm.nD, -1)


def assert_matches_nodal_averaging(sm, rng):
    """apply_vector and apply_transpose against the dense oracle matrix."""
    sp = sm.space
    M = nodal_averaging_oracle(sm, np.eye(sp.num_dofs))
    X = rng.standard_normal((sp.num_dofs, 3))
    Y = rng.standard_normal((M.shape[0], 3))
    for x, y in ((X[:, 0], Y[:, 0]), (X, Y)):
        _assert_close(sm.apply_vector(x), M @ x)
        _assert_close(sm.apply_transpose(y), M.T @ y)


@pytest.mark.parametrize("variant", AVERAGING_VARIANTS)
@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("make", [
    lambda: jittered_square(4), lambda: build_lshape(2), single_triangle_mesh,
], ids=["jittered", "lshape", "single"])
def test_vertex_averaging_matches_nodal_averaging(make, p, variant):
    # the bubbles reproduce every degree-(p+1) Lagrange function of an
    # edge-interior or cell-interior node, so averaging at the vertices
    # gives the operator of the averaging at every Lagrange node
    sm = Smoother(HHOSpace(make(), p), averaging=variant)
    assert_matches_nodal_averaging(sm, np.random.default_rng(p))


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(0, 3),
       variant=st.sampled_from(AVERAGING_VARIANTS))
def test_vertex_averaging_matches_nodal_averaging_on_jittered_meshes(seed, p, variant):
    sm = Smoother(HHOSpace(jittered_square(3, seed=seed), p), averaging=variant)
    assert_matches_nodal_averaging(sm, np.random.default_rng(seed))
