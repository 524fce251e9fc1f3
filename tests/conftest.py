import numpy as np

from hho.analysis import smooth_sine_case
from hho.mesh import SimplicialMesh, build_unit_square

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
