import numpy as np

from hho.analysis import smooth_sine_case
from hho.mesh import SimplicialMesh, build_unit_square
from hho.polyquad import (
    cell_basis_gradients,
    cell_basis_laplacians,
    cell_basis_values,
    face_basis_values,
)

_SINE = smooth_sine_case()
sine = _SINE.u
sine_grad = _SINE.grad_u
sine_f0 = _SINE.load.f0


def hat_profile(x):
    return (1.0 - np.abs(2.0 * x[..., 0] - 1.0)) * (
        1.0 - np.abs(2.0 * x[..., 1] - 1.0)
    )


def jittered_square(n, jitter=0.15, seed=0):
    """Unit-square n x n mesh with interior vertices moved by up to jitter/n."""
    mesh = build_unit_square(n)
    verts = mesh.vertices.copy()
    interior = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    verts[interior] += rng.uniform(-jitter, jitter, (interior.sum(), 2)) / n
    return SimplicialMesh(verts, mesh.cells)


def single_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]])
    return SimplicialMesh(verts, np.array([[0, 1, 2]]))


def basis_at(mesh, degree, points, cells=None):
    """Cell-basis values (T, Q, n), gradients (T, Q, n, 2) and Laplacians
    (T, Q, n) at physical points (T, Q, 2), point by point: the points are
    pulled back to each cell's barycentric coordinates and the derivatives
    mapped with that cell's J^{-1}."""
    cells = np.arange(mesh.num_cells) if cells is None else np.asarray(cells)
    bary = mesh.barycentric_coordinates(cells[:, None], points)
    jinv = mesh.inverse_jacobians[cells][:, None]  # (T, 1, 2, 2)
    metric = (jinv @ jinv.swapaxes(-1, -2))[..., [0, 0, 1], [0, 1, 1]]
    vals = cell_basis_values(degree, bary)
    grads = cell_basis_gradients(degree, bary) @ jinv
    laps = (cell_basis_laplacians(degree, bary) @ metric[..., None])[..., 0]
    return vals, grads, laps


def reference_face_mass(degree):
    """int_{-1/2}^{1/2} psi_k psi_l ds of the face basis (degree+1, degree+1),
    by numpy's (degree+1)-point Gauss-Legendre rule, exact for the integrand;
    a face's mass is h_F times this."""
    x, w = np.polynomial.legendre.leggauss(degree + 1)
    psi = face_basis_values(degree, 0.5 * x)
    return (0.5 * w * psi.T) @ psi
