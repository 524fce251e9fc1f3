"""Error measurement, manufactured problems, and convergence studies.

Error quadrature uses degree 2(p+2)+4 rules so that transcendental exact
solutions do not contaminate the measured orders. The reported H1 quantity
combines the broken seminorm error with the stabilization seminorm (the
left-hand side of the energy estimate); the quasi-optimality ratio divides it
by the elliptic-projection best error, which is a true lower bound.
"""

import json
import os

import numpy as np

from .local_ops import HHOSpace, cell_blocks, checked_values
from .mesh import build_lshape, build_unit_square, refine_red
from .polyquad import (
    cell_basis_gradients,
    cell_basis_values,
    cell_quadrature,
    quad_for_degree,
)
from .smoothing import Smoother, lagrange_interpolant
from .system import LoadFunctional, assemble, rhs_classical, rhs_smoothed, solve

METHODS = ("classical", "smoothed")

REPORT_COLUMNS = [
    "level", "h", "e_H1", "e_stab", "e_L2", "e_super",
    "best_H1", "ratio", "eoc_H1", "eoc_L2",
]


def _error_rule(p):
    return quad_for_degree(2, 2 * (p + 2) + 4)


def _error_norm(space, exact, name, bp, gradient=False):
    """L2 norm of `exact` minus the broken polynomial `bp` (its broken
    gradient with gradient=True) on the error rule, summed over cell blocks;
    the basis is tabulated once on the rule."""
    rule = _error_rule(space.p)
    if gradient:
        table, approx = cell_basis_gradients(bp.degree, rule.points), bp.gradients_on
    else:
        table, approx = cell_basis_values(bp.degree, rule.points), bp.values_on
    total = 0.0
    for cells in cell_blocks(space.mesh.num_cells):
        pts, w = cell_quadrature(space.mesh, rule, cells)
        diff = checked_values(exact, pts, name, gradient) - approx(table, cells)
        total += np.einsum("tq,tqd->" if gradient else "tq,tq->", w, diff ** 2)
    return float(np.sqrt(total))


def _broken_h1_distance(space, grad_u, bp):
    """Broken H1 seminorm of grad_u minus the broken gradient of `bp`."""
    return _error_norm(space, grad_u, "grad_u", bp, gradient=True)


def error_h1_broken(space, grad_u, vec):
    """(broken H1 seminorm error of the reconstruction, sqrt of stab form)."""
    seminorm = _broken_h1_distance(space, grad_u, space.reconstruct(vec))
    stab = float(np.sqrt(max(space.stab_form(vec), 0.0)))
    return seminorm, stab


def error_l2(space, u, vec):
    """L2 error of the reconstruction."""
    return _error_norm(space, u, "u", space.reconstruct(vec))


def supercloseness(space, u, vec):
    """||U_M - Pi_M u||: the cell component against the L2 projection of u.

    The cell mass of the degree-p basis is 2|K| times the leading block of
    the reference table `mass_hat`."""
    proj = space.project_cell(u)
    diff = space.split(vec)[0] - proj.coeffs
    nc = space.nc
    mass = 2.0 * space.mesh.volumes[:, None, None] * space.mass_hat[:nc, :nc]
    return float(np.sqrt(np.einsum("ti,tij,tj->", diff, mass, diff)))


def best_error_h1(space, u, grad_u):
    """Broken H1 best error: the elliptic projection realizes the cell infima."""
    return _broken_h1_distance(space, grad_u, space.elliptic_project(u, grad_u))


def eoc(errors, hs):
    """Empirical orders log(e_i/e_{i+1}) / log(h_i/h_{i+1}); length len-1."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    return list(np.log(errors[:-1] / errors[1:]) / np.log(hs[:-1] / hs[1:]))


def first_repeat(values):
    """The first entry that occurs twice in `values`, or None.

    A repeated convergence level gives two rows with the same h, where the
    empirical order divides by log(1) = 0.
    """
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return None


class PiecewisePolyFunction:
    """Evaluate a broken polynomial anywhere via point location on its mesh.

    Intended for mesh-aligned exact solutions: points are assigned the first
    cell whose closure contains them, so values are single-valued for
    continuous polynomials and gradients pick a deterministic side on edges.
    """

    def __init__(self, bp):
        self.bp = bp

    def locate(self, points):
        pts = points.reshape(-1, 2)
        point, cell = self.bp.mesh.containing_cells(pts, 1e-12)
        found, first = np.unique(point, return_index=True)
        if len(found) < len(pts):
            raise ValueError("point outside the mesh of the piecewise polynomial")
        return cell[first]

    def __call__(self, points):
        points = np.asarray(points, dtype=float)
        vals = self.bp.values_at(points.reshape(-1, 1, 2), cells=self.locate(points))
        return vals.reshape(points.shape[:-1])

    def gradient(self, points):
        points = np.asarray(points, dtype=float)
        grads = self.bp.gradients_at(points.reshape(-1, 1, 2), cells=self.locate(points))
        return grads.reshape(points.shape)


class ManufacturedCase:
    """Exact solution, load and mesh family for one problem.

    `mesh_for(level)` builds the mesh of one level. `level_check(level)`
    raises ValueError, naming the level, for levels the case cannot use:
    anything but an integer, and any integer for which `level_rule(level)`
    returns a reason (by default, levels below 1).
    """

    def __init__(self, name, u, grad_u, load, mesh_for,
                 level_rule=lambda level: _at_least(level, 1)):
        self.name = name
        self.u = u
        self.grad_u = grad_u
        self.load = load
        self.mesh_for = mesh_for
        self.level_rule = level_rule

    def level_check(self, level):
        integral = isinstance(level, (int, np.integer)) and not isinstance(level, bool)
        reason = self.level_rule(level) if integral else "an integer level"
        if reason:
            raise ValueError(f"level {level}: {self.name} needs {reason}")


def _at_least(level, low):
    return f"an integer level >= {low}" if level < low else None


def _hat(t):
    return 1.0 - np.abs(2.0 * t - 1.0)


def smooth_sine_case():
    def u(x):
        return np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    def grad_u(x):
        return np.stack([
            np.pi * np.cos(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
            np.pi * np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1]),
        ], axis=-1)

    def f0(x):
        return 2.0 * np.pi ** 2 * u(x)

    return ManufacturedCase(
        "smooth-sine", u, grad_u, LoadFunctional(f0=f0), build_unit_square,
    )


def poly_consistency_case(p, base_n=2):
    """Continuous piecewise-P^{p+1} hat profile on a fixed mesh, load g = grad u.

    The discrete solution of the smoothed method must coincide with the
    interpolant; all errors are machine zero on every refinement.
    """
    base = build_unit_square(base_n)
    profile = lagrange_interpolant(
        base, p + 1, lambda x: _hat(x[..., 0]) * _hat(x[..., 1])
    )
    u = PiecewisePolyFunction(profile)
    return ManufacturedCase(
        "poly-consistency", u, u.gradient, LoadFunctional(g=u.gradient),
        mesh_for=_refiner(base), level_rule=lambda level: _at_least(level, 0),
    )


def _refiner(base):
    def mesh_for(level):
        mesh = base
        for _ in range(int(level)):
            mesh = refine_red(mesh)
        return mesh

    return mesh_for


def kink_aligned_case():
    """u = hat(x) sin(pi y): the load is a line Dirac plus an L2 part, i.e.
    genuinely in H^-1 minus L2; it is supplied only in divergence form."""

    def u(x):
        return _hat(x[..., 0]) * np.sin(np.pi * x[..., 1])

    def grad_u(x):
        dphi = np.where(x[..., 0] < 0.5, 2.0, -2.0)
        return np.stack([
            dphi * np.sin(np.pi * x[..., 1]),
            np.pi * _hat(x[..., 0]) * np.cos(np.pi * x[..., 1]),
        ], axis=-1)

    def check(level):
        if level % 2 != 0:
            return "an even grid so x = 1/2 is a mesh line"
        return _at_least(level, 1)

    return ManufacturedCase(
        "kink-aligned", u, grad_u, LoadFunctional(g=grad_u), build_unit_square,
        level_rule=check,
    )


def corner_singular_case():
    """u = cutoff(r) r^(2/3) sin(2 theta / 3) on the L-shape; alpha = 2/3."""

    def polar(x):
        r = np.hypot(x[..., 0], x[..., 1])
        th = np.arctan2(x[..., 1], x[..., 0])
        th = np.where(th < 0.0, th + 2.0 * np.pi, th)
        return r, th

    def u(x):
        r, th = polar(x)
        chi = np.where(r < 1.0, (1.0 - r ** 2) ** 4, 0.0)
        return chi * r ** (2.0 / 3.0) * np.sin(2.0 * th / 3.0)

    def grad_u(x):
        r, th = polar(x)
        r = np.maximum(r, 1e-300)
        inside = r < 1.0
        chi = np.where(inside, (1.0 - r ** 2) ** 4, 0.0)
        dchi = np.where(inside, -8.0 * r * (1.0 - r ** 2) ** 3, 0.0)
        s, c = np.sin(2.0 * th / 3.0), np.cos(2.0 * th / 3.0)
        w = r ** (2.0 / 3.0) * s
        dw_r = (2.0 / 3.0) * r ** (-1.0 / 3.0) * s
        dw_t = (2.0 / 3.0) * r ** (-1.0 / 3.0) * c  # (1/r) d/dtheta
        ur = dchi * w + chi * dw_r
        ut = chi * dw_t
        er = np.stack([np.cos(th), np.sin(th)], axis=-1)
        et = np.stack([-np.sin(th), np.cos(th)], axis=-1)
        return ur[..., None] * er + ut[..., None] * et

    return ManufacturedCase(
        "corner-singular", u, grad_u, LoadFunctional(g=grad_u), build_lshape,
    )


# case name -> builder for degree p
CASES = {
    "smooth-sine": lambda p: smooth_sine_case(),
    "poly-consistency": poly_consistency_case,
    "kink-aligned": lambda p: kink_aligned_case(),
    "corner-singular": lambda p: corner_singular_case(),
}


def builtin_cases(p):
    """All built-in manufactured cases for degree p."""
    return [get_case(name, p) for name in CASES]


def get_case(name, p):
    """The named built-in case for degree p."""
    if name not in CASES:
        raise KeyError(f"unknown case {name!r}")
    return CASES[name](p)


class ConvergenceReport:
    """Per-level errors and empirical orders for one convergence study."""

    def __init__(self, case_name, degree, method, averaging, rows):
        self.case_name = case_name
        self.degree = degree
        self.method = method
        self.averaging = averaging
        self.rows = rows

    def column(self, key):
        return [row[key] for row in self.rows]

    def energy_errors(self):
        return [np.hypot(r["e_H1"], r["e_stab"]) for r in self.rows]

    def to_dict(self):
        return {
            "case": self.case_name,
            "degree": self.degree,
            "method": self.method,
            "averaging": self.averaging,
            "columns": REPORT_COLUMNS,
            "rows": [{k: row[k] for k in REPORT_COLUMNS} for row in self.rows],
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(REPORT_COLUMNS) + "\n")
            for row in self.rows:
                cells = []
                for key in REPORT_COLUMNS:
                    val = row[key]
                    if key == "level":
                        cells.append(str(int(val)))
                    else:
                        cells.append(f"{float(val):.17g}")
                fh.write(",".join(cells) + "\n")

    def write_gnuplot(self, directory, stem):
        """Two-column (h, error) files per norm, gnuplot-compatible."""
        series = {
            "h1": self.energy_errors(),
            "l2": self.column("e_L2"),
            "super": self.column("e_super"),
            "best": self.column("best_H1"),
        }
        paths = []
        for norm, errors in series.items():
            path = os.path.join(directory, f"{stem}_{norm}.dat")
            with open(path, "w") as fh:
                fh.write("# h error\n")
                for h, e in zip(self.column("h"), errors):
                    fh.write(f"{h:.17g} {e:.17g}\n")
            paths.append(path)
        return paths


def solve_load(space, load, method="smoothed", averaging="mean", solver="direct"):
    """Dof vector of the discrete solution on `space` for `load`.

    The method only decides the right-hand side: `classical` integrates f0
    against the cell unknowns, `smoothed` evaluates the load on the smoothed
    test functions, one cell block at a time. The right-hand side is
    computed first, so the smoother (per cell a state id and the averaging
    blocks) is freed before the system is assembled and its face system
    factored.
    """
    if method == "classical":
        rhs = rhs_classical(space, load)
    elif method == "smoothed":
        rhs = rhs_smoothed(space, Smoother(space, averaging=averaging), load)
    else:
        raise ValueError(f"unknown method {method!r}")
    return solve(assemble(space), rhs, method=solver)


def _solve_level(case, p, level, method, averaging, quad_extra, solver):
    """Errors of one level, as a report row without its orders.

    Every array of the level dies when this returns; the smoother and the
    system die inside `solve_load`, before the errors are evaluated. Per
    cell the space holds only a class id and the dof map, with `G` held
    once per geometry class, the smoother a face-state id and the averaging
    blocks, with its blocks held once per combination of face states, and
    the system the cell rows A_tt of the local blocks, the elimination and
    the Schur complement per class (at p = 3 on a grid about 0.3, 0.3 and
    0.1 KiB per cell; on a mesh with one class per cell 2.9, 0.3 and 2.9
    KiB): the local blocks, the load's values and every other per-cell
    temporary exist one fixed-size block at a time, and no face matrix is
    assembled, so the level's peak is these held tables plus the face
    factor, a Cholesky factor on the mesh's dissection tree formed from the
    class Schur blocks one batch of fronts at a time (`FaceFactor`).
    """
    mesh = case.mesh_for(level)
    space = HHOSpace(mesh, p, quad_extra=quad_extra)
    vec = solve_load(space, case.load, method, averaging, solver)

    semi, stab = error_h1_broken(space, case.grad_u, vec)
    best = best_error_h1(space, case.u, case.grad_u)
    energy = float(np.hypot(semi, stab))
    return {
        "level": level,
        "h": float(mesh.h_cell.max()),
        "e_H1": semi,
        "e_stab": stab,
        "e_L2": error_l2(space, case.u, vec),
        "e_super": supercloseness(space, case.u, vec),
        "best_H1": best,
        "ratio": energy / best if best > 0.0 else float("nan"),
        "eoc_H1": float("nan"),
        "eoc_L2": float("nan"),
    }


def check_levels(case, levels):
    """Refuse a level list a convergence study cannot use: fewer than two
    levels, a level the case cannot use, or a repeated level."""
    if len(levels) < 2:
        raise ValueError("converge needs at least 2 levels")
    for level in levels:
        case.level_check(level)
    repeated = first_repeat(levels)
    if repeated is not None:
        raise ValueError(f"level {repeated} is repeated in 'levels'")


def run_convergence(case, p, levels, method="smoothed", averaging="mean",
                    quad_extra=2, solver="direct"):
    """Solve the case on each level and report errors, ratios and orders.

    The levels are solved one at a time, from the largest to the smallest
    (every case's mesh grows with its level), and reported in the given
    order. At most one level's space, smoother and system are alive at
    once, and its peak is the held tables of its space (the class ids, the
    dof map and `G` per geometry class) and system (A_tt, the elimination
    and the Schur complement per class) plus the face factor on the
    dissection tree (`_solve_level`). The smaller levels then run in the
    memory the largest one has freed, so the study's peak is its largest
    level's own.
    """
    check_levels(case, levels)
    solved = {level: _solve_level(case, p, level, method, averaging,
                                  quad_extra, solver)
              for level in sorted(levels, reverse=True)}
    rows = [solved[level] for level in levels]
    report = ConvergenceReport(case.name, p, method, averaging, rows)
    hs = report.column("h")
    orders = zip(eoc(report.energy_errors(), hs), eoc(report.column("e_L2"), hs))
    for row, (r_h1, r_l2) in zip(rows[1:], orders):
        row["eoc_H1"], row["eoc_L2"] = r_h1, r_l2
    return report
