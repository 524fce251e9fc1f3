from math import factorial

import numpy as np
import pytest

from conftest import basis_at, jittered_square
from hho.local_ops import P_MAX, HHOSpace, stiffness_blocks
from hho.mesh import SimplicialMesh, build_unit_square, refine_red
from hho.polyquad import (
    MAX_DEGREE,
    UnsupportedDegreeError,
    cell_basis_gradients,
    cell_basis_laplacians,
    cell_basis_values,
    cell_exponents,
    cell_quadrature,
    face_barycentric,
    face_basis_values,
    face_quadrature,
    quad_for_degree,
)


def exact_triangle_monomial(a, b):
    # int over the reference triangle of x^a y^b
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_triangle_rule_degree1_barycentric_mean():
    rule = quad_for_degree(2, 1)
    val = np.sum(rule.weights * rule.points[:, 1])
    assert val == pytest.approx(0.5 / 3.0, abs=1e-16)


@pytest.mark.parametrize("degree", range(0, MAX_DEGREE + 1))
def test_triangle_rule_exactness(degree):
    rule = quad_for_degree(2, degree)
    assert np.all(rule.weights > 0.0)
    x, y = rule.points[:, 1], rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.sum(rule.weights * x ** a * y ** b)
            exact = exact_triangle_monomial(a, b)
            assert abs(val - exact) <= 1e-14 * max(1.0, abs(exact) * 10)


def gauss_jacobi_of_triangle_rule(k):
    """The k-point Gauss-Jacobi rule for the weight (1 - x) on [-1, 1] that
    the degree-(2k-2) triangle rule collapses onto its second coordinate."""
    rule = quad_for_degree(2, 2 * k - 2)
    eta = rule.points[:k, 2]
    weta = rule.weights.reshape(k, k).sum(axis=0)  # the edge weights sum to 1
    return 2.0 * eta - 1.0, 4.0 * weta


@pytest.mark.parametrize("k", range(1, 12))
def test_gauss_jacobi_exact_to_2k_minus_1(k):
    x, w = gauss_jacobi_of_triangle_rule(k)
    assert len(x) == k
    for j in range(2 * k):
        # int_{-1}^{1} (1 - x) x^j dx: the even one of x^j, x^(j+1) survives
        exact = 2.0 / (j + 1) if j % 2 == 0 else -2.0 / (j + 2)
        assert abs(np.sum(w * x ** j) - exact) <= 4e-15


@pytest.mark.parametrize("k", range(1, 12))
def test_gauss_jacobi_positive_weights_ascending_interior_nodes(k):
    x, w = gauss_jacobi_of_triangle_rule(k)
    assert np.all(w > 0.0)
    assert np.all(np.diff(x) > 0.0)
    assert -1.0 < x[0] and x[-1] < 1.0


@pytest.mark.parametrize("k", range(1, 12))
def test_gauss_jacobi_agrees_with_scipy(k):
    from scipy.special import roots_jacobi

    x, w = gauss_jacobi_of_triangle_rule(k)
    x_ref, w_ref = roots_jacobi(k, 1.0, 0.0)
    assert np.allclose(x, x_ref, rtol=5e-14, atol=0.0)
    assert np.allclose(w, w_ref, rtol=5e-14, atol=0.0)


def test_triangle_rule_degree5_x2y3():
    # exact rational oracle: 2! 3! / 7! = 1/420
    rule = quad_for_degree(2, 5)
    val = np.sum(rule.weights * rule.points[:, 1] ** 2 * rule.points[:, 2] ** 3)
    assert val == pytest.approx(1.0 / 420.0, rel=1e-14)


@pytest.mark.parametrize("k", range(1, 8))
def test_edge_gauss_exact_to_2k_minus_1(k):
    rule = quad_for_degree(1, 2 * k - 1)
    assert len(rule.weights) == k
    t = rule.points[:, 1]
    for m in range(2 * k):
        val = np.sum(rule.weights * t ** m)
        assert val == pytest.approx(1.0 / (m + 1), rel=1e-14)


def test_rule_degree_out_of_range():
    with pytest.raises(UnsupportedDegreeError):
        quad_for_degree(2, 21)
    with pytest.raises(UnsupportedDegreeError):
        quad_for_degree(3, 2)


def test_cell_quadrature_measures():
    m = build_unit_square(2)
    rule = quad_for_degree(2, 3)
    _, w = cell_quadrature(m, rule)
    assert np.allclose(w.sum(axis=1), m.volumes)
    faces = np.arange(m.num_faces)
    _, wf = face_quadrature(m, rule=quad_for_degree(1, 3), faces=faces)
    assert np.allclose(wf.sum(axis=1), m.h_face)


def test_exponent_order_graded_prefix():
    e2 = cell_exponents(2)
    e3 = cell_exponents(3)
    assert np.array_equal(e3[: len(e2)], e2)
    assert tuple(e2[0]) == (0, 0)


def test_basis_first_function_is_one():
    rule = quad_for_degree(2, 4)
    vals = cell_basis_values(2, rule.points)
    assert np.allclose(vals[..., 0], 1.0)
    # every other function vanishes at the barycentre
    centre = cell_basis_values(3, np.full(3, 1.0 / 3.0))
    assert np.array_equal(centre, np.eye(len(centre))[0])


def test_degree_minus_one_tables_are_empty():
    # P^{-1} = {0}: no basis functions, but tables of the usual leading shape
    m = build_unit_square(1)
    pts, _ = cell_quadrature(m, quad_for_degree(2, 4))
    bary = m.barycentric_coordinates(np.arange(m.num_cells)[:, None], pts)
    T, Q = pts.shape[:2]
    assert cell_basis_values(-1, bary).shape == (T, Q, 0)
    assert cell_basis_gradients(-1, bary).shape == (T, Q, 0, 2)
    assert cell_basis_laplacians(-1, bary).shape == (T, Q, 0, 3)


def test_basis_gradients_match_finite_differences():
    m = build_unit_square(1)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.4, size=(m.num_cells, 4, 2))
    grads = basis_at(m, 3, pts)[1]
    eps = 1e-6
    for d in range(2):
        shift = np.zeros(2)
        shift[d] = eps
        fd = (
            basis_at(m, 3, pts + shift)[0] - basis_at(m, 3, pts - shift)[0]
        ) / (2 * eps)
        assert np.abs(grads[..., d] - fd).max() < 1e-8


def test_basis_laplacians_match_finite_differences():
    m = build_unit_square(1)
    pts = np.full((m.num_cells, 1, 2), 0.3)
    pts[1] = 0.6
    lap = basis_at(m, 3, pts)[2]
    eps = 1e-5
    fd = -4.0 * basis_at(m, 3, pts)[0]
    for shift in ([eps, 0], [-eps, 0], [0, eps], [0, -eps]):
        fd += basis_at(m, 3, pts + np.asarray(shift))[0]
    fd /= eps ** 2
    assert np.abs(lap - fd).max() < 1e-5


# cell Gram and stiffness matrices are checked on the tables HHOSpace builds:
# the stiffness blocks it forms and the reference mass mass_hat, both of the
# degree-(p+1) basis; the Gram matrix of cell K is 2|K| mass_hat


def _cell_mass(mesh, p):
    """Degree-(p+1) Gram matrices (T, n1, n1) from the space's reference table."""
    return 2.0 * mesh.volumes[:, None, None] * HHOSpace(mesh, p).mass_hat


def _physical_mass(mesh, degree):
    """Degree-`degree` Gram matrices (T, n, n), einsum over the basis
    evaluated cell by cell at the physical quadrature points."""
    pts, w = cell_quadrature(mesh, quad_for_degree(2, 2 * degree))
    vals = basis_at(mesh, degree, pts)[0]
    return np.einsum("tq,tqi,tqj->tij", w, vals, vals)


def test_mass_matrix_constant_basis_is_area():
    m = build_unit_square(1)
    M = _cell_mass(m, 0)[:, :1, :1]  # degree 0
    assert M.shape == (m.num_cells, 1, 1)
    assert M[:, 0, 0] == pytest.approx(m.volumes, rel=1e-14)


def test_mass_matrix_symmetry_exact():
    m = build_unit_square(2)
    M = _cell_mass(m, 1)[3]  # degree 2
    assert np.array_equal(M, M.T)


def test_mass_matrix_spd_on_random_triangles():
    # dense eigensolve oracle
    rng = np.random.default_rng(42)
    for _ in range(10):
        verts = rng.uniform(-1.0, 1.0, size=(3, 2))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        if abs(e1[0] * e2[1] - e1[1] * e2[0]) < 0.1:
            continue
        m = SimplicialMesh(verts, np.array([[0, 1, 2]]))
        M = _cell_mass(m, 1)[0]  # degree 2
        assert np.linalg.eigvalsh(M).min() > 0.0


def test_face_mass_matrix_matches_reference():
    # the basis is orthonormal on the unit interval: the physical face mass,
    # integrated at the physical points, is h_F I on every face
    m = jittered_square(4)
    faces = np.arange(m.num_faces)
    for degree in range(P_MAX + 2):
        rule = quad_for_degree(1, 2 * degree)
        _, w = face_quadrature(m, rule, faces)
        psi = face_basis_values(degree, rule.points[:, 1] - 0.5)
        M = np.einsum("fq,qi,qj->fij", w, psi, psi)
        want = m.h_face[:, None, None] * np.eye(degree + 1)
        assert np.abs(M - want).max() <= 1e-14 * m.h_face.max()


@pytest.mark.parametrize("degree", range(P_MAX + 2))
def test_face_basis_orthonormal_prefix(degree):
    # int_{-1/2}^{1/2} psi_k psi_l ds = delta_kl, by an independent
    # Gauss-Legendre rule, and the degree-q basis is the leading q + 1
    # columns of every larger one
    x, w = np.polynomial.legendre.leggauss(degree + 2)
    psi = face_basis_values(degree, 0.5 * x)
    gram = (0.5 * w * psi.T) @ psi
    assert np.abs(gram - np.eye(degree + 1)).max() <= 1e-14
    for q in range(degree):
        assert np.array_equal(face_basis_values(q, 0.5 * x), psi[:, : q + 1])


def test_stiffness_constant_row_zero_and_kernel_dimension():
    m = build_unit_square(1)
    K = stiffness_blocks(m, HHOSpace(m, 1).stiff_hat)[0]  # degree 2
    assert np.allclose(K[0], 0.0) and np.allclose(K[:, 0], 0.0)
    eigs = np.linalg.eigvalsh(K)
    assert np.sum(np.abs(eigs) < 1e-12) == 1


def test_stiffness_p1_reference_triangle_hand_values():
    # the stiffness form of the polynomials x and y on the unit reference
    # triangle, whatever the basis: int grad x . grad y = 0 and
    # int |grad x|^2 = int |grad y|^2 = |K| = 1/2
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = SimplicialMesh(verts, np.array([[0, 1, 2]]))
    K = stiffness_blocks(m, HHOSpace(m, 0).stiff_hat)[0]  # degree 1
    # coefficients of x and y interpolated at the three vertices
    V = cell_basis_values(1, np.eye(3))
    coeffs = np.linalg.solve(V, verts)  # columns: x, y
    expected = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert np.allclose(coeffs.T @ K @ coeffs, expected, atol=1e-15)


def test_gram_conditioning_stable_under_refinement():
    # an affine-mapped basis: the Gram matrix is 2|K| times one reference
    # matrix, so its condition number is identical across red refinements
    m = build_unit_square(1)
    conds = []
    for _ in range(3):
        M = _physical_mass(m, 3)[0]
        conds.append(np.linalg.cond(M / m.volumes[0]))
        m = refine_red(m)
    assert max(conds) / min(conds) < 1.01


def test_face_basis_arclength_values():
    # face rule points run from the lower-index vertex: their arclength
    # coordinate (x - m_F) . t_F / h_F is the rule parameter minus 1/2
    m = jittered_square(3)
    faces = np.arange(m.num_faces)
    rule = quad_for_degree(1, 6)
    pts, _ = face_quadrature(m, rule, faces)
    fv = m.vertices[m.faces]  # from the lower-index vertex to the higher one
    tangents = (fv[:, 1] - fv[:, 0]) / m.h_face[:, None]
    s = np.einsum("fqd,fd->fq", pts - m.face_midpoints[:, None, :], tangents)
    s /= m.h_face[:, None]
    assert np.allclose(s, rule.points[:, 1] - 0.5, atol=1e-14)
    # psi_k = sqrt(2k + 1) P_k(2 s): sqrt(2k + 1) at the higher vertex,
    # (-1)^k sqrt(2k + 1) at the lower one, and sqrt(2k + 1) P_k(0) at the
    # midpoint, with P_k(0) = 1, 0, -1/2, 0, 3/8
    k = np.arange(P_MAX + 2)
    vals = face_basis_values(P_MAX + 1, np.array([-0.5, 0.0, 0.5]))
    scale = np.sqrt(2.0 * k + 1.0)
    assert np.allclose(vals[2], scale, rtol=1e-15, atol=0.0)
    assert np.allclose(vals[0], (-1.0) ** k * scale, rtol=1e-15, atol=0.0)
    assert np.allclose(vals[1], scale * [1.0, 0.0, -0.5, 0.0, 0.375],
                       rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_mass_is_one_reference_matrix_on_every_cell(p):
    # an affine-mapped basis: the Gram matrix of cell K, integrated at its
    # physical points, is 2|K| times the space's reference table mass_hat
    sp = HHOSpace(jittered_square(4), p)
    ref = _physical_mass(sp.mesh, p + 1) / (2.0 * sp.mesh.volumes[:, None, None])
    assert np.abs(ref - sp.mass_hat).max() <= 1e-14 * np.abs(sp.mass_hat).max()


def test_face_barycentric_places_points_on_local_faces():
    # entry [i, o] lies on the face opposite local vertex i and starts at
    # the local vertex i+1+o; the mesh's flips pick the lower global vertex
    m = jittered_square(3)
    t = np.array([0.0, 0.25, 1.0])
    bary = face_barycentric(t)
    for i in range(3):
        assert np.all(bary[i, :, :, i] == 0.0)
        for o in (0, 1):
            assert bary[i, o, 0, (i + 1 + o) % 3] == 1.0
        start = (i + 1 + m.face_flips[:, i]) % 3
        lower = m.faces[m.cell_faces[:, i], 0]
        assert np.array_equal(m.cells[np.arange(m.num_cells), start], lower)
