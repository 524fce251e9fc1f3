from math import factorial

import numpy as np
import pytest

from hho.local_ops import HHOSpace
from hho.mesh import SimplicialMesh, build_unit_square, refine_red
from hho.polyquad import (
    UnsupportedDegreeError,
    cell_basis_gradients,
    cell_basis_laplacians,
    cell_basis_values,
    cell_exponents,
    cell_quadrature,
    face_basis_values,
    face_quadrature,
    quad_for_degree,
    reference_face_mass,
)


def exact_triangle_monomial(a, b):
    # int over the reference triangle of x^a y^b
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_triangle_rule_degree1_barycentric_mean():
    rule = quad_for_degree(2, 1)
    val = np.sum(rule.weights * rule.points[:, 1])
    assert val == pytest.approx(0.5 / 3.0, abs=1e-16)


@pytest.mark.parametrize("degree", range(0, 15))
def test_triangle_rule_exactness(degree):
    rule = quad_for_degree(2, degree)
    assert np.all(rule.weights > 0.0)
    x, y = rule.points[:, 1], rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.sum(rule.weights * x ** a * y ** b)
            exact = exact_triangle_monomial(a, b)
            assert abs(val - exact) <= 1e-14 * max(1.0, abs(exact) * 10)


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
    m = build_unit_square(1)
    rule = quad_for_degree(2, 4)
    pts, _ = cell_quadrature(m, rule)
    vals = cell_basis_values(m, 2, pts)
    assert np.allclose(vals[..., 0], 1.0)


def test_degree_minus_one_tables_are_empty():
    # P^{-1} = {0}: no basis functions, but tables of the usual leading shape
    m = build_unit_square(1)
    pts, _ = cell_quadrature(m, quad_for_degree(2, 4))
    T, Q = pts.shape[:2]
    assert cell_basis_values(m, -1, pts).shape == (T, Q, 0)
    assert cell_basis_gradients(m, -1, pts).shape == (T, Q, 0, 2)
    assert cell_basis_laplacians(m, -1, pts).shape == (T, Q, 0)


def test_basis_gradients_match_finite_differences():
    m = build_unit_square(1)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.4, size=(m.num_cells, 4, 2))
    grads = cell_basis_gradients(m, 3, pts)
    eps = 1e-6
    for d in range(2):
        shift = np.zeros(2)
        shift[d] = eps
        fd = (
            cell_basis_values(m, 3, pts + shift)
            - cell_basis_values(m, 3, pts - shift)
        ) / (2 * eps)
        assert np.abs(grads[..., d] - fd).max() < 1e-8


def test_basis_laplacians_match_finite_differences():
    m = build_unit_square(1)
    pts = np.full((m.num_cells, 1, 2), 0.3)
    pts[1] = 0.6
    lap = cell_basis_laplacians(m, 3, pts)
    eps = 1e-5
    fd = -4.0 * cell_basis_values(m, 3, pts)
    for shift in ([eps, 0], [-eps, 0], [0, eps], [0, -eps]):
        fd += cell_basis_values(m, 3, pts + np.asarray(shift))
    fd /= eps ** 2
    assert np.abs(lap - fd).max() < 1e-5


# cell Gram and stiffness matrices are checked on the tables HHOSpace builds
# for every cell at once: mass1/stiff1 hold the degree-(p+1) basis


def test_mass_matrix_constant_basis_is_area():
    m = build_unit_square(1)
    M = HHOSpace(m, 0).mass_p
    assert M.shape == (m.num_cells, 1, 1)
    assert M[:, 0, 0] == pytest.approx(m.volumes, rel=1e-14)


def test_mass_matrix_symmetry_exact():
    m = build_unit_square(2)
    M = HHOSpace(m, 1).mass1[3]  # degree 2
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
        M = HHOSpace(m, 1).mass1[0]  # degree 2
        assert np.linalg.eigvalsh(M).min() > 0.0


def test_face_mass_matrix_matches_reference():
    m = build_unit_square(2)
    f = m.interior_faces[:1]
    pts, w = face_quadrature(m, quad_for_degree(1, 4), f)
    psi = face_basis_values(m, 2, f, pts)[0]
    M = np.einsum("q,qi,qj->ij", w[0], psi, psi)
    assert np.allclose(M, m.h_face[f[0]] * reference_face_mass(2), rtol=1e-14)


def test_stiffness_constant_row_zero_and_kernel_dimension():
    m = build_unit_square(1)
    K = HHOSpace(m, 1).stiff1[0]  # degree 2
    assert np.allclose(K[0], 0.0) and np.allclose(K[:, 0], 0.0)
    eigs = np.linalg.eigvalsh(K)
    assert np.sum(np.abs(eigs) < 1e-12) == 1


def test_stiffness_p1_reference_triangle_hand_values():
    # basis {1, (x-m)/h, (y-m)/h} on the unit reference triangle:
    # h = sqrt(2), |K| = 1/2, so the two gradient entries give |K|/h^2 = 1/4
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = SimplicialMesh(verts, np.array([[0, 1, 2]]))
    K = HHOSpace(m, 0).stiff1[0]  # degree 1
    expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 0.25]])
    assert np.allclose(K, expected, atol=1e-15)


def test_gram_conditioning_stable_under_refinement():
    # scaled monomials: the Gram matrix is translation and scale invariant,
    # so its condition number is identical across red refinements
    m = build_unit_square(1)
    conds = []
    for _ in range(3):
        M = HHOSpace(m, 2).mass1[0]  # degree 3
        conds.append(np.linalg.cond(M / m.volumes[0]))
        m = refine_red(m)
    assert max(conds) / min(conds) < 1.01


def test_face_basis_arclength_values():
    m = build_unit_square(1)
    f = int(m.interior_faces[0])
    ends = m.vertices[m.faces[f]]
    pts = np.linspace(0, 1, 5)[:, None] * (ends[1] - ends[0]) + ends[0]
    vals = face_basis_values(m, 2, np.array([f]), pts[None])[0]
    s = np.linspace(-0.5, 0.5, 5)
    assert np.allclose(vals[:, 1], s, atol=1e-14)
    assert np.allclose(vals[:, 2], s ** 2, atol=1e-14)
