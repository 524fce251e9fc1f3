"""Polynomial bases on cells and faces, and simplex quadrature.

Cell bases are scaled monomials ((x - m_K)/h_K)^alpha in graded order, so the
degree-q basis is a prefix of the degree-(q+1) basis and the first function is
the constant 1. Face bases are scaled monomials in the arclength coordinate
s = (x - m_F) . t_F / h_F, with the tangent t_F pointing from the lower-index
vertex to the higher one; s runs over [-1/2, 1/2].

Quadrature: Gauss-Legendre on edges, conical-product rules (Gauss-Legendre x
Gauss-Jacobi on the collapsed square) on triangles. Both have strictly
positive weights and are exact to the requested degree.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

MAX_DEGREE = 20


def symmetrize(M):
    """Mirror the upper triangle onto the lower one (exact symmetry).

    Entries (i, j) and (j, i) come from the same floating-point sum, so
    M == M.T holds bitwise.
    """
    upper = np.triu(M)
    return upper + np.triu(M, 1).swapaxes(-1, -2)


class UnsupportedDegreeError(ValueError):
    """Requested quadrature or basis degree beyond the implemented maximum."""


class QuadratureRule:
    """Quadrature rule on the reference simplex.

    Points are stored in barycentric coordinates, shape (Q, d+1); weights sum
    to the reference measure (1 for the unit edge, 1/2 for the unit triangle).
    """

    def __init__(self, dim, degree, points, weights):
        self.dim = dim
        self.degree = degree
        self.points = points
        self.weights = weights


_RULE_CACHE = {}


def quad_for_degree(dim, degree):
    """Rule exact for all polynomials of total degree <= `degree`."""
    if degree < 0 or degree > MAX_DEGREE:
        raise UnsupportedDegreeError(
            f"quadrature degree {degree} outside [0, {MAX_DEGREE}]"
        )
    if dim not in (1, 2):
        raise UnsupportedDegreeError(f"no quadrature for dimension {dim}")
    key = (dim, degree)
    if key in _RULE_CACHE:
        return _RULE_CACHE[key]

    k = (degree + 2) // 2  # Gauss with k points is exact to 2k-1
    if dim == 1:
        x, w = leggauss(k)
        t = 0.5 * (x + 1.0)
        points = np.stack([1.0 - t, t], axis=1)
        weights = 0.5 * w
    else:
        xi, wxi = leggauss(k)
        xi = 0.5 * (xi + 1.0)
        wxi = 0.5 * wxi
        xj, wj = roots_jacobi(k, 1.0, 0.0)
        eta = 0.5 * (xj + 1.0)
        weta = 0.25 * wj
        XI, ETA = np.meshgrid(xi, eta, indexing="ij")
        x = (XI * (1.0 - ETA)).ravel()
        y = ETA.ravel()
        points = np.stack([1.0 - x - y, x, y], axis=1)
        weights = np.outer(wxi, weta).ravel()
    rule = QuadratureRule(dim, degree, points, weights)
    _RULE_CACHE[key] = rule
    return rule


def cell_quadrature(mesh, rule):
    """Physical quadrature points and weights on every cell.

    Returns ``points`` of shape (T, Q, 2) and ``weights`` of shape (T, Q);
    weights sum to the cell area.
    """
    points = rule.points @ mesh.cell_vertices()
    weights = 2.0 * mesh.volumes[:, None] * rule.weights[None, :]
    return points, weights


def face_quadrature(mesh, rule, faces):
    """Physical quadrature points (F, Q, 2) and weights (F, Q) on faces."""
    verts = mesh.vertices[mesh.faces[faces]]
    points = rule.points @ verts
    weights = mesh.h_face[faces][:, None] * rule.weights[None, :]
    return points, weights


def space_dimension(degree):
    """dim P^degree on a triangle; 0 for degree -1 (convention P_-1 = {0})."""
    if degree < 0:
        return 0
    return (degree + 1) * (degree + 2) // 2


def cell_exponents(degree):
    """Graded monomial exponents, shape (n, 2): (0,0), (1,0), (0,1), ..."""
    exps = [(k - j, j) for k in range(degree + 1) for j in range(k + 1)]
    return np.array(exps, dtype=np.int64).reshape(-1, 2)


def _relative(mesh, cells, points):
    if cells is None:
        centers = mesh.barycenters
        h = mesh.h_cell
    else:
        centers = mesh.barycenters[cells]
        h = mesh.h_cell[cells]
    rel = (points - centers[:, None, :]) / h[:, None, None]
    return rel, h


def _power_tables(rel, degree):
    """Cumulative powers of the relative coordinates up to `degree`."""
    shape = rel.shape[:-1] + (degree + 1,)
    px = np.ones(shape)
    py = np.ones(shape)
    for k in range(1, degree + 1):
        px[..., k] = px[..., k - 1] * rel[..., 0]
        py[..., k] = py[..., k - 1] * rel[..., 1]
    return px, py


def cell_basis_values(mesh, degree, points, cells=None):
    """Scaled-monomial values at physical points (T, Q, 2) -> (T, Q, n)."""
    rel, _ = _relative(mesh, cells, points)
    exps = cell_exponents(degree)
    px, py = _power_tables(rel, degree)
    return px[..., exps[:, 0]] * py[..., exps[:, 1]]


def cell_basis_gradients(mesh, degree, points, cells=None):
    """Gradients at physical points -> (T, Q, n, 2)."""
    rel, h = _relative(mesh, cells, points)
    exps = cell_exponents(degree)
    ax, ay = exps[:, 0], exps[:, 1]
    px, py = _power_tables(rel, degree)
    dx = ax * px[..., np.maximum(ax - 1, 0)] * py[..., ay]
    dy = ay * px[..., ax] * py[..., np.maximum(ay - 1, 0)]
    grad = np.stack([dx, dy], axis=-1)
    return grad / h[:, None, None, None]


def cell_basis_laplacians(mesh, degree, points, cells=None):
    """Laplacians at physical points -> (T, Q, n)."""
    rel, h = _relative(mesh, cells, points)
    exps = cell_exponents(degree)
    ax, ay = exps[:, 0], exps[:, 1]
    px, py = _power_tables(rel, degree)
    dxx = ax * (ax - 1) * px[..., np.maximum(ax - 2, 0)] * py[..., ay]
    dyy = ay * (ay - 1) * px[..., ax] * py[..., np.maximum(ay - 2, 0)]
    return (dxx + dyy) / (h ** 2)[:, None, None]


def face_arclength(mesh, faces, points):
    """Scaled arclength coordinate s in [-1/2, 1/2] of points (F, Q, 2)."""
    mids = mesh.face_midpoints[faces]
    tang = mesh.face_tangents[faces]
    h = mesh.h_face[faces]
    return np.einsum("fqd,fd->fq", points - mids[:, None, :], tang) / h[:, None]


def face_basis_values(mesh, degree, faces, points):
    """Scaled-monomial values on faces: (F, Q, 2) -> (F, Q, degree+1)."""
    s = face_arclength(mesh, faces, points)
    return s[..., None] ** np.arange(degree + 1)


def reference_face_mass(degree):
    """Exact integrals int_{-1/2}^{1/2} s^(k+l) ds; face mass is h_F times this."""
    n = degree + 1
    M = np.zeros((n, n))
    for k in range(n):
        for l in range(n):
            m = k + l
            if m % 2 == 0:
                M[k, l] = 0.5 ** m / (m + 1)
    return M
