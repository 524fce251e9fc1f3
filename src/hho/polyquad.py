"""Polynomial bases on the reference triangle and faces, and simplex quadrature.

Every cell K is the image of the reference triangle under its affine map
x = v_0 + J_K (l1, l2), (l0, l1, l2) the barycentric coordinates of x. The
cell basis is the graded monomials (l1 - 1/3)^a (l2 - 1/3)^b in the centred
reference coordinates, so it is defined once, here: the degree-q basis is a
prefix of the degree-(q+1) basis, the first function is the constant 1 and
every other one vanishes at the barycentre. Tables are tabulated once per
(degree, rule) at barycentric points and mapped per cell: values need no
map, gradients are the reference gradients times J_K^{-1} (as rows), and the
Laplacian contracts the reference second derivatives with the metric
J_K^{-1} J_K^{-T}. Face bases are the orthonormal Legendre polynomials
sqrt(2k + 1) P_k(2 s) in the arclength coordinate s = (x - m_F) . t_F / h_F,
with the tangent t_F pointing from the lower-index vertex to the higher one;
s runs over [-1/2, 1/2], the first function is the constant 1, the degree-q
basis is a prefix of the degree-(q+1) basis, and the face mass is h_F I.

Quadrature: Gauss-Legendre on edges, conical-product rules (Gauss-Legendre x
Gauss-Jacobi on the collapsed square) on triangles. Both have strictly
positive weights and are exact to the requested degree. The Gauss-Jacobi
rule for the weight (1 - x) is computed here (Golub-Welsch eigenvalues plus
one Newton step), so no special-function library is loaded.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

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


def _jacobi_10(k, x):
    """P_k^(1,0) and its derivative at x, by the three-term recurrence."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    for n in range(1, k + 1):
        # (n+1)(2n-1) P_n = ((2n+1)(2n-1) x + 1) P_{n-1} - (n-1)(2n+1) P_{n-2}
        c, e = (2 * n + 1) * (2 * n - 1), (n - 1) * (2 * n + 1)
        s = (n + 1) * (2 * n - 1)
        a = c * x + 1.0
        p_new = (a * p - e * p_prev) / s
        dp_new = (c * p + a * dp - e * dp_prev) / s
        p_prev, p, dp_prev, dp = p, p_new, dp, dp_new
    return p, dp


def _gauss_jacobi(k):
    """k-point Gauss rule for the weight (1 - x) on [-1, 1], nodes ascending.

    Nodes are the eigenvalues of the Jacobi matrix of the monic recurrence
    (Golub-Welsch), refined by one Newton step on P_k^(1,0); the weights are
    w_i = 4 / ((1 - x_i^2) P_k'(x_i)^2), whose Gamma prefactor is 1 here.
    """
    n = np.arange(k)
    diag = -1.0 / ((2 * n + 1) * (2 * n + 3))
    off = np.sqrt(n[1:] * (n[1:] + 1.0)) / (2 * n[1:] + 1)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p, dp = _jacobi_10(k, x)
    x = x - p / dp
    _, dp = _jacobi_10(k, x)
    return x, 4.0 / ((1.0 - x * x) * dp * dp)


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
        xj, wj = _gauss_jacobi(k)
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


def cell_quadrature(mesh, rule, cells=slice(None)):
    """Physical quadrature points and weights on `cells` (every cell by
    default).

    Returns ``points`` of shape (T, Q, 2) and ``weights`` of shape (T, Q);
    weights sum to the cell area.
    """
    points = rule.points @ mesh.vertices[mesh.cells[cells]]
    weights = 2.0 * mesh.volumes[cells, None] * rule.weights[None, :]
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


def _power_tables(bary, degree):
    """Cumulative powers of the centred reference coordinates up to `degree`."""
    bary = np.asarray(bary, dtype=float)
    shape = bary.shape[:-1] + (degree + 1,)
    px = np.ones(shape)
    py = np.ones(shape)
    for k in range(1, degree + 1):
        px[..., k] = px[..., k - 1] * (bary[..., 1] - 1.0 / 3.0)
        py[..., k] = py[..., k - 1] * (bary[..., 2] - 1.0 / 3.0)
    return px, py


def cell_basis_values(degree, bary):
    """Basis values at barycentric points (..., 3) -> (..., n); the same in every cell."""
    exps = cell_exponents(degree)
    px, py = _power_tables(bary, degree)
    return px[..., exps[:, 0]] * py[..., exps[:, 1]]


def cell_basis_gradients(degree, bary):
    """Reference gradients d/d(l1, l2) at barycentric points -> (..., n, 2).

    On cell K the gradient is this table times J_K^{-1}: rows (..., n, 2) @
    ``mesh.inverse_jacobians[K]``.
    """
    exps = cell_exponents(degree)
    ax, ay = exps[:, 0], exps[:, 1]
    px, py = _power_tables(bary, degree)
    dx = ax * px[..., np.maximum(ax - 1, 0)] * py[..., ay]
    dy = ay * px[..., ax] * py[..., np.maximum(ay - 1, 0)]
    return np.stack([dx, dy], axis=-1)


def cell_basis_laplacians(degree, bary):
    """Reference second derivatives (d11, 2 d12, d22) at barycentric points -> (..., n, 3).

    On cell K the Laplacian is this table contracted with the entries
    (G11, G12, G22) of the metric G = J_K^{-1} J_K^{-T}.
    """
    exps = cell_exponents(degree)
    ax, ay = exps[:, 0], exps[:, 1]
    px, py = _power_tables(bary, degree)
    dxx = ax * (ax - 1) * px[..., np.maximum(ax - 2, 0)] * py[..., ay]
    dxy = 2 * ax * ay * px[..., np.maximum(ax - 1, 0)] * py[..., np.maximum(ay - 1, 0)]
    dyy = ay * (ay - 1) * px[..., ax] * py[..., np.maximum(ay - 2, 0)]
    return np.stack([dxx, dxy, dyy], axis=-1)


def face_barycentric(t):
    """Cell barycentric coordinates of face points, shape (3, 2, ..., 3).

    Entry [i, o] places the face parameters t in [0, 1] on the face opposite
    local vertex i, measured from its lower-index global vertex: local
    vertex i+1 when o = 0, local vertex i+2 when o = 1 (o is
    ``mesh.face_flips[K, i]``). Tables at these points are the reference
    face tables per (local face, orientation).
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros((3, 2) + t.shape + (3,))
    for i in range(3):
        a, b = (i + 1) % 3, (i + 2) % 3
        out[i, 0, ..., a] = out[i, 1, ..., b] = 1.0 - t
        out[i, 0, ..., b] = out[i, 1, ..., a] = t
    return out


def face_basis_values(degree, s):
    """Orthonormal Legendre polynomials sqrt(2k + 1) P_k(2 s) at arclength
    coordinates s (...) -> (..., degree+1)."""
    scale = np.sqrt(2.0 * np.arange(degree + 1) + 1.0)
    return legvander(2.0 * np.asarray(s, dtype=float), degree) * scale
