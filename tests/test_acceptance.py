"""Acceptance suite: one test per criterion, each printing a PASS line.

Convergence studies run on the unit square up to n = 64 at p in {0, 1, 2};
results are cached across criteria so each (case, degree, method, averaging)
grid is solved once.
"""

import numpy as np
import pytest

from conftest import hat_profile
from hho.analysis import (
    kink_aligned_case,
    run_convergence,
    smooth_sine_case,
)
from hho.local_ops import HHOSpace
from hho.mesh import build_unit_square
from hho.smoothing import Smoother, consistency_constant, lagrange_interpolant
from hho.system import (
    MethodNotApplicableError,
    assemble,
    rhs_classical,
    rhs_smoothed,
    solve,
)
from hho.verify import SUITE_DEFAULTS, run_verification

DEGREES = (0, 1, 2)
LEVELS = [8, 16, 32, 64]
VARIANTS = ("mean", "scott-zhang")

_run_cache = {}
_verify_cache = {}


def converged(case_factory, p, method, averaging="mean"):
    key = (case_factory.__name__, p, method, averaging)
    if key not in _run_cache:
        _run_cache[key] = run_convergence(
            case_factory(), p, LEVELS, method=method, averaging=averaging
        )
    return _run_cache[key]


def verification_report():
    if "report" not in _verify_cache:
        # the default suite, the one `hho verify` runs for an empty config
        _verify_cache["report"] = run_verification()
    return _verify_cache["report"]


def _passline(name, detail):
    print(f"[PASS] {name}: {detail}")


def _checks(report, name, variant=None):
    return [
        c for c in report["checks"]
        if c["name"] == name and (variant is None or c["variant"] == variant)
    ]


def test_criterion_1_structural_identity_suite():
    """R.I = E to 1e-10; s(Iq, Iq) <= 1e-18; smoother moments < 1e-11 on 100
    seeded random fields; gradient orthogonality of R - S_H to 1e-10."""
    report = verification_report()
    for name in ("reconstruction-identity", "kernel-stab",
                 "moment-cell", "moment-face", "orthogonality"):
        entries = _checks(report, name)
        assert entries, f"no checks recorded for {name}"
        for c in entries:
            assert c["passed"], (
                f"{name} failed at p={c['degree']} n={c['resolution']} "
                f"variant={c['variant']}: residual {c['residual']:.3e} "
                f"> tol {c['tolerance']:.0e}"
            )
    worst = {
        name: max(c["residual"] for c in _checks(report, name))
        for name in ("reconstruction-identity", "kernel-stab",
                     "moment-cell", "moment-face", "orthogonality")
    }
    _passline(
        "criterion 1 (structural identities)",
        ", ".join(f"{k} worst {v:.2e}" for k, v in worst.items()),
    )


@pytest.mark.parametrize("averaging", VARIANTS)
def test_criterion_2_discrete_consistency(averaging):
    """Piecewise-P^{p+1} exact solution with load g = grad u: the smoothed
    method returns the interpolant to 1e-9 per dof, p in {0, 1, 2}."""
    worst = 0.0
    for p in DEGREES:
        space = HHOSpace(build_unit_square(4), p)
        profile = lagrange_interpolant(space.mesh, p + 1, hat_profile)
        system = assemble(space)
        smoother = Smoother(space, averaging=averaging)
        from hho.system import LoadFunctional

        rhs = rhs_smoothed(space, smoother, LoadFunctional(g=profile.gradients_at))
        vec = solve(system, rhs)
        resid = np.abs(vec - space.interpolate(profile)).max()
        assert resid < 1e-9, f"p={p} ({averaging}): |U - Iu|_inf = {resid:.3e}"
        worst = max(worst, resid)
    _passline(
        f"criterion 2 (discrete consistency, {averaging})",
        f"worst dof residual {worst:.2e}",
    )


@pytest.mark.parametrize("method,averaging", [
    ("classical", "mean"),
    ("smoothed", "mean"),
    ("smoothed", "scott-zhang"),
])
def test_criterion_3_smooth_rates(method, averaging):
    """smooth-sine, n = 8..64: last-interval EOC within 0.15 of p+1 in the
    energy norm and 0.2 of p+2 in L2, for the classical and smoothed methods.

    The classical right-hand side does not involve the averaging operator,
    so it is run once; the smoothed method covers both variants (criterion 7).
    """
    lines = []
    for p in DEGREES:
        rep = converged(smooth_sine_case, p, method, averaging)
        eoc_h1 = rep.rows[-1]["eoc_H1"]
        eoc_l2 = rep.rows[-1]["eoc_L2"]
        assert abs(eoc_h1 - (p + 1)) <= 0.15, (
            f"{method}/{averaging} p={p}: energy EOC {eoc_h1:.3f} "
            f"not within 0.15 of {p + 1}"
        )
        assert abs(eoc_l2 - (p + 2)) <= 0.2, (
            f"{method}/{averaging} p={p}: L2 EOC {eoc_l2:.3f} "
            f"not within 0.2 of {p + 2}"
        )
        lines.append(f"p={p}: H1 {eoc_h1:.3f} L2 {eoc_l2:.3f}")
    _passline(f"criterion 3 (smooth rates, {method}/{averaging})",
              "; ".join(lines))


@pytest.mark.parametrize("averaging", VARIANTS)
def test_criterion_4_supercloseness(averaging):
    """||U_M - Pi_M u|| decays at order p+2 (within 0.2) on smooth-sine."""
    lines = []
    for p in DEGREES:
        rep = converged(smooth_sine_case, p, "smoothed", averaging)
        hs = rep.column("h")
        supers = rep.column("e_super")
        rate = float(np.log(supers[-2] / supers[-1]) / np.log(hs[-2] / hs[-1]))
        assert abs(rate - (p + 2)) <= 0.2, (
            f"{averaging} p={p}: supercloseness EOC {rate:.3f} "
            f"not within 0.2 of {p + 2}"
        )
        lines.append(f"p={p}: {rate:.3f}")
    _passline(f"criterion 4 (supercloseness, {averaging})", "; ".join(lines))


@pytest.mark.parametrize("averaging", VARIANTS)
def test_criterion_5_h_minus_one_load_headline(averaging):
    """kink-aligned (load only as g = grad u): the classical path refuses the
    load; the smoothed method converges at order p+1 with a bounded
    quasi-optimality ratio (max <= 1.5 min over levels)."""
    case = kink_aligned_case()
    space = HHOSpace(build_unit_square(8), 1)
    with pytest.raises(MethodNotApplicableError):
        rhs_classical(space, case.load)

    lines = []
    for p in DEGREES:
        rep = converged(kink_aligned_case, p, "smoothed", averaging)
        eoc_h1 = rep.rows[-1]["eoc_H1"]
        assert abs(eoc_h1 - (p + 1)) <= 0.15, (
            f"{averaging} p={p}: kink energy EOC {eoc_h1:.3f} "
            f"not within 0.15 of {p + 1}"
        )
        ratios = rep.column("ratio")
        assert max(ratios) <= 1.5 * min(ratios), (
            f"{averaging} p={p}: quasi-optimality ratios {ratios} not bounded"
        )
        lines.append(
            f"p={p}: EOC {eoc_h1:.3f} ratio [{min(ratios):.3f}, {max(ratios):.3f}]"
        )
    _passline(
        f"criterion 5 (H^-1 load headline, {averaging})",
        "classical refused; " + "; ".join(lines),
    )


def test_criterion_6_smoother_stability_constant():
    """Measured C_H (the largest eigenvalue of the pencil (D^T K D, B) by
    Lanczos) varies by less than 25% across three refinements at fixed p."""
    lines = []
    for p in DEGREES:
        values = []
        for n in (4, 8, 16):
            space = HHOSpace(build_unit_square(n), p)
            values.append(consistency_constant(space, Smoother(space)))
        spread = (max(values) - min(values)) / min(values)
        assert spread < 0.25, f"p={p}: C_H across refinements {values} varies {spread:.1%}"
        lines.append(f"p={p}: C_H {values[-1]:.3f} spread {spread:.1%}")
    _passline("criterion 6 (smoother stability constant)", "; ".join(lines))


def test_criterion_7_scott_zhang_variant_structural_suite():
    """Criteria 1-5 hold with the Scott-Zhang-style averaging; the structural
    checks run per variant inside the shared verification report (the rate
    and consistency criteria are parametrized over the variant above)."""
    report = verification_report()
    for name in ("moment-cell", "moment-face", "conformity", "orthogonality"):
        entries = _checks(report, name, variant="scott-zhang")
        assert entries, f"no scott-zhang checks recorded for {name}"
        for c in entries:
            assert c["passed"], (
                f"{name} (scott-zhang) failed at p={c['degree']} "
                f"n={c['resolution']}: residual {c['residual']:.3e}"
            )
    worst = max(
        c["residual"]
        for name in ("moment-cell", "moment-face")
        for c in _checks(report, name, variant="scott-zhang")
    )
    _passline(
        "criterion 7 (Scott-Zhang variant)",
        f"structural suite green, worst moment residual {worst:.2e}",
    )


def test_verification_suite_remaining_checks():
    """Conformity, coercivity, condensation and mesh checks of the shared
    verification report (the remainder of the run_verify contract)."""
    report = verification_report()
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]
    _passline(
        "verification suite",
        f"{len(report['checks'])} checks green at p in "
        f"{SUITE_DEFAULTS['degrees']}, n in {SUITE_DEFAULTS['resolutions']}",
    )
