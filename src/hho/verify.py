"""Structural verification suite: the identities behind the method, measured.

Each check evaluates a residual with a pinned tolerance and reports one
record; the suite passes only if every record passes. Randomized checks are
seeded and iterate in a fixed order, so a report is bit-reproducible for a
given seed.
"""

import os

import numpy as np
from scipy import linalg as dla
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .analysis import poly_consistency_case, smooth_sine_case
from .local_ops import HHOSpace, assemble_bilinear
from .mesh import (
    build_unit_square,
    check_matching,
    read_mesh_file,
    refine_red,
    shape_parameter,
)
from .smoothing import (
    Smoother,
    conformity_residual,
    moment_residuals,
    orthogonality_residual,
)
from .system import SPD_LU, assemble, rhs_smoothed, solve, solve_full

TOLERANCES = {
    "mesh-matching": 0.0,
    "mesh-area": 1e-12,
    "mesh-refine-gamma": 1e-12,
    "mesh-refine-h": 1e-13,
    "reconstruction-identity": 1e-10,
    "kernel-stab": 1e-18,
    "kernel-reconstruction": 1e-10,
    "coercivity-min-eig": -1e-12,       # passes when residual > tolerance
    "coercivity-stability": 0.2,
    "moment-cell": 1e-11,
    "moment-face": 1e-11,
    "conformity": 1e-10,
    "orthogonality": 1e-10,
    "condensation": 1e-10,
    "discrete-consistency": 1e-9,
}

GREATER_IS_PASS = {"coercivity-min-eig"}


class _Report:
    def __init__(self, seed):
        self.checks = []
        self.seed = seed

    def add(self, name, residual, degree=None, resolution=None, variant=None):
        tol = TOLERANCES[name]
        residual = float(residual)
        passed = residual > tol if name in GREATER_IS_PASS else residual <= tol
        self.checks.append({
            "name": name,
            "degree": degree,
            "resolution": resolution,
            "variant": variant,
            "residual": residual,
            "tolerance": tol,
            "passed": bool(passed),
        })

    def to_dict(self):
        return {
            "seed": self.seed,
            "passed": all(c["passed"] for c in self.checks),
            "checks": self.checks,
        }


def _mesh_checks(report, resolutions):
    for n in resolutions:
        mesh = build_unit_square(n)
        report.add("mesh-matching", len(check_matching(mesh)), resolution=n)
        report.add("mesh-area", abs(mesh.volumes.sum() - 1.0), resolution=n)
        refined = refine_red(mesh)
        report.add(
            "mesh-refine-gamma",
            abs(shape_parameter(refined) - shape_parameter(mesh)),
            resolution=n,
        )
        report.add(
            "mesh-refine-h",
            abs(refined.h_cell.max() - 0.5 * mesh.h_cell.max()),
            resolution=n,
        )


def _external_mesh_checks(report, mesh_path):
    # the file's base name, so the report does not depend on where it was run
    mesh = read_mesh_file(mesh_path)
    report.add("mesh-matching", len(check_matching(mesh)),
               variant=os.path.basename(mesh_path))


def _space_checks(report, space, n, rng, random_fields, variants):
    """Record the checks of one space; return its coercivity eigenvalue."""
    p = space.p
    sine = smooth_sine_case()

    recon = space.reconstruct(space.interpolate(sine.u))
    proj = space.elliptic_project(sine.u, sine.grad_u)
    scale = np.abs(proj.coeffs).max()
    report.add(
        "reconstruction-identity",
        np.abs(recon.coeffs - proj.coeffs).max() / scale,
        degree=p, resolution=n,
    )

    # the case's piecewise-P^{p+1} hat profile lives on build_unit_square(n),
    # the mesh of `space`
    case = poly_consistency_case(p, base_n=n)
    hat = case.u.bp
    i_hat = space.interpolate(hat)
    report.add("kernel-stab", space.stab_form(i_hat, i_hat), degree=p, resolution=n)
    r_hat = space.reconstruct(i_hat)
    report.add(
        "kernel-reconstruction",
        np.abs(r_hat.coeffs - hat.coeffs).max() / max(np.abs(hat.coeffs).max(), 1.0),
        degree=p, resolution=n,
    )

    smoothers = {}
    for variant in variants:
        smoother = smoothers[variant] = Smoother(space, averaging=variant)
        X = rng.standard_normal((random_fields, space.num_dofs)).T
        cell_res, face_res = moment_residuals(smoother, X)
        report.add("moment-cell", cell_res.max(initial=0.0),
                   degree=p, resolution=n, variant=variant)
        report.add("moment-face", face_res.max(initial=0.0),
                   degree=p, resolution=n, variant=variant)

        # both identities on the cell tables [C_K | Q_K], never on S_H
        report.add("conformity", conformity_residual(smoother),
                   degree=p, resolution=n, variant=variant)
        report.add("orthogonality", orthogonality_residual(smoother),
                   degree=p, resolution=n, variant=variant)

    # condensation exactness on a smooth load
    system = assemble(space)
    smoother = smoothers.get("mean") or Smoother(space)
    rhs = rhs_smoothed(space, smoother, sine.load)
    u_cond = solve(system, rhs)
    u_full = solve_full(system, rhs)
    report.add(
        "condensation", np.abs(u_cond - u_full).max(), degree=p, resolution=n
    )

    # discrete consistency: piecewise-polynomial solution, divergence load
    u_disc = solve(system, rhs_smoothed(space, smoother, case.load))
    report.add("discrete-consistency", np.abs(u_disc - i_hat).max(),
               degree=p, resolution=n)

    lam = _min_eigenvalue(system)
    report.add("coercivity-min-eig", lam, degree=p, resolution=n)
    return lam


# relative gap between the local bound and the Lanczos shift; positive, since
# at p = 0 the bound is attained (on the unit-square grids every eigenvalue of
# (A, H) is 1), and a shift on an eigenvalue leaves A - sigma H singular
SHIFT_GAP = 1e-4


def _local_coercivity_bound(space, local_blocks, norm_blocks):
    """min_K lambda_min(A_K, H_K) on the complement of the local constant,
    from the blocks A_K of `local_blocks` and H_K of `norm_blocks`.

    With A = sum_K A_K and H = sum_K H_K, both vanishing on the local
    constant c (1 at cell dof 0 and at the first dof of each face), every
    global eigenvalue of (A, H) is at least this minimum: the element-by-
    element eigenvalue bound of Fried (J. Sound Vib. 22, 1972). It holds for
    any sign of the local blocks. Z, an orthonormal basis of the complement
    of c, comes from one Householder reflector mapping e_0 to c / |c|; each
    pencil (Z^T A_K Z, Z^T H_K Z) is reduced by the Cholesky factor L of
    Z^T H_K Z to the symmetric L^{-1} Z^T A_K Z L^{-T}.
    """
    nc, nf, nloc = space.nc, space.nf, space.nloc
    w = np.zeros(nloc)
    w[[0, nc, nc + nf, nc + 2 * nf]] = 0.5  # c / |c|
    w[0] -= 1.0
    Z = (np.eye(nloc) - np.outer(w, w) * (2.0 / (w @ w)))[:, 1:]
    Li = np.linalg.inv(np.linalg.cholesky(Z.T @ norm_blocks @ Z))
    reduced = Li @ (Z.T @ local_blocks @ Z) @ Li.swapaxes(-1, -2)
    return float(np.linalg.eigvalsh(reduced)[:, 0].min())


def _min_eigenvalue(system):
    """Smallest eigenvalue of the HHO matrix A against the coercivity norm H.

    The local bound b = min_K lambda_min(A_K, H_K) (Fried 1972) lies just
    below lambda_min: 0-4 % on the unit-square grids. The shift
    sigma = b - SHIFT_GAP |b| is certified below every eigenvalue when the
    symmetric-ordering factor P (A - sigma H) P^T = L U has equal row and
    column permutations and positive pivots diag(U): then U = D L^T, and
    Sylvester's law of inertia makes A - sigma H positive definite. The
    eigenvalue nearest sigma, found by shift-invert Lanczos on that factor
    (Ericsson & Ruhe, Math. Comp. 35, 1980), is then the smallest, and the
    closeness of the shift makes it converge in a few dozen solves. Without
    the certificate, or when the space has a single dof (too few for
    ARPACK), the exact value comes from a dense solve. A is the system's
    `full_matrix`; the blocks H_K are formed once and feed both the
    assembled H and the bound, which forms the blocks A_K once more.
    """
    space = system.space
    A = system.full_matrix
    norm_blocks = space.hho_norm_blocks()
    H = assemble_bilinear(space, norm_blocks)
    n = A.shape[0]
    if n > 1:
        bound = _local_coercivity_bound(space, space.local_matrices(),
                                        norm_blocks)
        sigma = bound - SHIFT_GAP * abs(bound)
        lu = splu((A - sigma * H).tocsc(), **SPD_LU)
        if np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0):
            op = LinearOperator((n, n), matvec=lu.solve, dtype=float)
            return float(eigsh(A, k=1, M=H, sigma=sigma, OPinv=op,
                               v0=np.ones(n), return_eigenvectors=False)[0])
    return float(
        dla.eigh(A.toarray(), H.toarray(), eigvals_only=True,
                 subset_by_index=[0, 0])[0]
    )


# The default suite, the one `hho verify` runs for an empty config.
SUITE_DEFAULTS = {
    "degrees": (0, 1, 2), "resolutions": (2, 4, 8), "seed": 20180608,
    "random_fields": 100, "variants": ("mean", "scott-zhang"),
}


def run_verification(degrees=SUITE_DEFAULTS["degrees"],
                     resolutions=SUITE_DEFAULTS["resolutions"],
                     seed=SUITE_DEFAULTS["seed"],
                     random_fields=SUITE_DEFAULTS["random_fields"],
                     variants=SUITE_DEFAULTS["variants"], mesh_path=None):
    """Run the full structural suite; returns a JSON-serializable report."""
    report = _Report(seed)
    if mesh_path is not None:
        _external_mesh_checks(report, mesh_path)
    _mesh_checks(report, resolutions)

    for p in degrees:
        rng = np.random.default_rng(seed + p)
        eigs = []
        for n in resolutions:
            space = HHOSpace(build_unit_square(n), p)
            eigs.append(_space_checks(report, space, n, rng, random_fields, variants))
        spread = (max(eigs) - min(eigs)) / max(eigs)
        report.add("coercivity-stability", spread, degree=p)
    return report.to_dict()
