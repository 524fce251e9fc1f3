import json

import numpy as np
import pytest

import hho.analysis
import hho.local_ops
import hho.system
from conftest import jittered_square, sine, sine_grad
from hho.analysis import (
    CASES,
    METHODS,
    REPORT_COLUMNS,
    PiecewisePolyFunction,
    best_error_h1,
    builtin_cases,
    eoc,
    error_h1_broken,
    error_l2,
    get_case,
    kink_aligned_case,
    poly_consistency_case,
    run_convergence,
    smooth_sine_case,
    solve_load,
    supercloseness,
)
from hho.local_ops import CELL_BLOCK, BrokenPoly, HHOSpace
from hho.mesh import build_unit_square
from hho.polyquad import cell_quadrature, quad_for_degree
from hho.smoothing import Smoother, lagrange_interpolant
from hho.system import (
    MethodNotApplicableError,
    assemble,
    rhs_classical,
    rhs_smoothed,
    solve,
)


def test_eoc_hand_values():
    assert eoc([1.0, 0.25], [1.0, 0.5]) == [pytest.approx(2.0, abs=1e-14)]


def test_errors_vanish_on_consistent_polynomial_case():
    case = poly_consistency_case(1)
    rep = run_convergence(case, 1, [0, 1], method="smoothed")
    for row in rep.rows:
        assert np.hypot(row["e_H1"], row["e_stab"]) < 1e-9
        assert row["e_L2"] < 1e-9
        assert row["e_super"] < 1e-9


def test_error_functions_match_quadrature_oracle():
    # fixed random dof vector, independent quadrature of the error integrands
    rng = np.random.default_rng(12)
    sp = HHOSpace(build_unit_square(3), 1)
    vec = rng.standard_normal(sp.num_dofs)
    semi, stab = error_h1_broken(sp, sine_grad, vec)
    l2 = error_l2(sp, sine, vec)
    recon = sp.reconstruct(vec)
    rule = quad_for_degree(2, 16)
    pts, w = cell_quadrature(sp.mesh, rule)
    gd = sine_grad(pts) - recon.gradients_at(pts)
    vd = sine(pts) - recon.values_at(pts)
    assert semi == pytest.approx(np.sqrt(np.einsum("tq,tqd->", w, gd ** 2)), rel=1e-10)
    assert l2 == pytest.approx(np.sqrt(np.einsum("tq,tq->", w, vd ** 2)), rel=1e-10)
    assert stab == pytest.approx(np.sqrt(sp.stab_form(vec)), rel=1e-12)


@pytest.mark.parametrize("error, name", [
    (lambda sp, v: error_l2(sp, lambda x: np.where(x[..., 0] < 0.5, np.nan, 1.0), v),
     "u"),
    (lambda sp, v: error_h1_broken(sp, sine, v), "grad_u"),
    # refused by the elliptic projection best_error_h1 starts with
    (lambda sp, v: best_error_h1(sp, sine, lambda x: np.full(x.shape, np.inf)),
     "gradient grad_v"),
], ids=["nan-u", "scalar-grad_u", "inf-best-grad_u"])
def test_bad_exact_solution_values_are_refused(error, name):
    sp = HHOSpace(build_unit_square(4), 1)
    with pytest.raises(ValueError, match=f"^{name} returned"):
        error(sp, np.zeros(sp.num_dofs))


def test_error_halving_ratio_smooth_case_p1():
    case = smooth_sine_case()
    rep = run_convergence(case, 1, [8, 16], method="classical")
    e = rep.energy_errors()
    assert 3.3 < e[0] / e[1] < 4.7  # 2^{p+1} = 4


def test_best_error_zero_for_polynomials():
    sp = HHOSpace(build_unit_square(2), 1)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((sp.mesh.num_cells, sp.n1))
    bp = BrokenPoly(sp.mesh, sp.p + 1, coeffs)
    assert best_error_h1(sp, bp, bp.gradients_at) < 1e-11


def test_best_error_rate_p_plus_one():
    errs, hs = [], []
    for n in (4, 8, 16):
        sp = HHOSpace(build_unit_square(n), 1)
        errs.append(best_error_h1(sp, sine, sine_grad))
        hs.append(sp.mesh.h_cell.max())
    rates = eoc(errs, hs)
    assert rates[-1] == pytest.approx(2.0, abs=0.1)


def test_quasi_optimality_ratio_lower_bound():
    case = smooth_sine_case()
    rep = run_convergence(case, 0, [4, 8], method="smoothed")
    assert all(r >= 1.0 - 1e-9 for r in rep.column("ratio"))


def test_builtin_cases_validate_and_lookup():
    cases = builtin_cases(1)
    names = [c.name for c in cases]
    assert names == ["smooth-sine", "poly-consistency", "kink-aligned",
                     "corner-singular"]
    assert get_case("kink-aligned", 0).name == "kink-aligned"
    with pytest.raises(KeyError):
        get_case("unknown", 0)


def _points_inside_cells(mesh):
    """Four points per cell, each at least a fifth of the way from every
    edge: the built-in gradients jump only across mesh lines (the kink at
    x = 1/2, the base mesh of poly-consistency) and blow up only at the
    re-entrant corner, a mesh vertex."""
    bary = np.array([[1.0, 1.0, 1.0], [3.0, 1.0, 1.0], [1.0, 3.0, 1.0],
                     [1.0, 1.0, 3.0]])
    bary /= bary.sum(axis=1, keepdims=True)
    return np.einsum("la,tad->tld", bary, mesh.cell_vertices())


@pytest.mark.parametrize("name", list(CASES))
def test_case_gradient_matches_central_differences(name):
    case = get_case(name, 3)
    pts = _points_inside_cells(case.mesh_for(2))
    h = 1e-5
    fd = np.stack([(case.u(pts + e) - case.u(pts - e)) / (2.0 * h)
                   for e in h * np.eye(2)], axis=-1)
    grad = case.grad_u(pts)
    assert np.abs(grad - fd).max() < 1e-7 * max(1.0, np.abs(grad).max())


def test_smooth_sine_load_is_minus_laplacian():
    case = smooth_sine_case()
    pts = _points_inside_cells(case.mesh_for(2))
    h = 1e-4
    lap = sum(case.u(pts + e) + case.u(pts - e) for e in h * np.eye(2))
    lap = (lap - 4.0 * case.u(pts)) / h ** 2
    f0 = case.load.f0(pts)
    assert np.abs(lap + f0).max() < 1e-6 * np.abs(f0).max()


@pytest.mark.parametrize("method", ["classical", "smoothed"])
def test_solve_load_solves_the_method_right_hand_side(method):
    sp = HHOSpace(jittered_square(3), 1)
    load = smooth_sine_case().load
    rhs = (rhs_classical(sp, load) if method == "classical"
           else rhs_smoothed(sp, Smoother(sp, averaging="scott-zhang"), load))
    got = solve_load(sp, load, method, averaging="scott-zhang")
    assert np.array_equal(got, solve(assemble(sp), rhs))


def test_solve_load_frees_the_smoother_before_assembly(monkeypatch):
    import gc
    import weakref

    import hho.analysis

    smoothers, alive_at_assembly = [], []

    class TrackedSmoother(Smoother):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            smoothers.append(weakref.ref(self))

    def tracked_assemble(space):
        alive_at_assembly.append(sum(ref() is not None for ref in smoothers))
        return assemble(space)

    monkeypatch.setattr(hho.analysis, "Smoother", TrackedSmoother)
    monkeypatch.setattr(hho.analysis, "assemble", tracked_assemble)
    gc.collect()
    gc.disable()
    try:
        solve_load(HHOSpace(build_unit_square(2), 1), smooth_sine_case().load)
    finally:
        gc.enable()
    assert len(smoothers) == 1
    assert alive_at_assembly == [0]


def test_solve_load_refuses_an_unknown_method():
    sp = HHOSpace(build_unit_square(2), 0)
    with pytest.raises(ValueError, match="unknown method 'smooth'"):
        solve_load(sp, smooth_sine_case().load, "smooth")


def test_kink_case_refuses_classical_method():
    case = kink_aligned_case()
    sp = HHOSpace(build_unit_square(4), 0)
    with pytest.raises(MethodNotApplicableError):
        rhs_classical(sp, case.load)


def test_kink_case_requires_even_resolution():
    case = kink_aligned_case()
    with pytest.raises(ValueError):
        run_convergence(case, 0, [3, 6], method="smoothed")


def test_corner_singular_case_consistency():
    case = get_case("corner-singular", 0)
    # u vanishes on the re-entrant edges and near the outer boundary
    pts = np.array([[0.5, 0.0], [0.0, -0.5], [0.99, 0.5], [-0.5, 0.99]])
    assert np.abs(case.u(pts)[:2]).max() < 1e-13
    assert np.abs(case.u(pts)[2:]).max() < 1e-3


def test_piecewise_poly_function_matches_broken_poly():
    mesh = build_unit_square(2)
    q = lagrange_interpolant(mesh, 2, lambda x: x[..., 0] * x[..., 1])
    f = PiecewisePolyFunction(q)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.01, 0.99, size=(50, 2))
    cells = f.locate(pts)
    direct = q.values_at(pts[:, None, :], cells=cells)[:, 0]
    assert np.allclose(f(pts), direct, atol=1e-13)
    # gradient shape and chain rule sanity
    g = f.gradient(pts)
    assert g.shape == (50, 2)


def _first_cell_brute_force(mesh, points):
    """The per-cell scan: each point takes the first cell whose closure holds it."""
    out = np.full(len(points), -1, dtype=np.int64)
    remaining = np.arange(len(points))
    for k in range(mesh.num_cells):
        lam = mesh.barycentric_coordinates(np.full(len(remaining), k), points[remaining])
        inside = np.all(lam >= -1e-12, axis=1)
        out[remaining[inside]] = k
        remaining = remaining[~inside]
    return out


def test_locate_takes_lowest_cell_on_jittered_mesh():
    mesh = jittered_square(8)
    f = PiecewisePolyFunction(BrokenPoly(mesh, 1, np.zeros((mesh.num_cells, 3))))
    rng = np.random.default_rng(1)
    for points in (mesh.vertices, mesh.face_midpoints,
                   rng.uniform(0.0, 1.0, size=(500, 2))):
        want = _first_cell_brute_force(mesh, points)
        assert np.all(want >= 0)
        assert np.array_equal(f.locate(points), want)
    # shapes (..., 2) are located point by point
    grid = mesh.vertices[:60].reshape(3, 20, 2)
    want = _first_cell_brute_force(mesh, mesh.vertices[:60])
    assert np.array_equal(f.locate(grid), want)


def test_locate_outside_the_mesh_raises():
    mesh = build_unit_square(2)
    f = PiecewisePolyFunction(BrokenPoly(mesh, 1, np.zeros((mesh.num_cells, 3))))
    with pytest.raises(ValueError, match="outside the mesh"):
        f.locate(np.array([[0.5, 0.5], [1.0 + 1e-6, 0.5]]))
    with pytest.raises(ValueError, match="outside the mesh"):
        f(np.array([[-0.25, 0.5]]))


def test_run_convergence_requires_two_levels():
    with pytest.raises(ValueError):
        run_convergence(smooth_sine_case(), 0, [4], method="classical")


def test_run_convergence_refuses_repeated_levels():
    with pytest.raises(ValueError, match="level 2 is repeated"):
        run_convergence(smooth_sine_case(), 0, [2, 4, 2], method="classical")


def test_run_convergence_keeps_one_level_alive(monkeypatch):
    # every space and smoother of a level is freed (by reference counting
    # alone: the cycle collector is off) before the next level's space is
    # built
    import gc
    import weakref

    import hho.analysis

    built, alive_at_build = [], []

    class TrackedSpace(HHOSpace):
        def __init__(self, *args, **kwargs):
            alive_at_build.append(sum(ref() is not None for ref in built))
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    class TrackedSmoother(hho.analysis.Smoother):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(hho.analysis, "HHOSpace", TrackedSpace)
    monkeypatch.setattr(hho.analysis, "Smoother", TrackedSmoother)
    gc.collect()
    gc.disable()
    try:
        run_convergence(smooth_sine_case(), 1, [2, 4, 8])
    finally:
        gc.enable()
    assert len(built) == 6
    assert alive_at_build == [0, 0, 0]


def test_run_convergence_solves_the_largest_level_first(monkeypatch):
    # the levels are solved from the largest down, so the smaller ones run
    # in memory the largest has freed; the report keeps the given order and
    # equals, bitwise, the rows solved in ascending order
    import hho.analysis

    case, levels = smooth_sine_case(), [8, 4, 16]
    solve_level = hho.analysis._solve_level
    ascending = {level: solve_level(case, 1, level, "smoothed", "mean", 2, "direct")
                 for level in sorted(levels)}
    order = []

    def recording(case, p, level, *rest):
        order.append(level)
        return solve_level(case, p, level, *rest)

    monkeypatch.setattr(hho.analysis, "_solve_level", recording)
    report = run_convergence(case, 1, levels)
    assert order == [16, 8, 4]
    assert report.column("level") == levels
    rows = [ascending[level] for level in levels]
    hs = [row["h"] for row in rows]
    orders = {
        "eoc_H1": eoc([np.hypot(row["e_H1"], row["e_stab"]) for row in rows], hs),
        "eoc_L2": eoc([row["e_L2"] for row in rows], hs),
    }
    for key in REPORT_COLUMNS:
        want = ([np.nan, *orders[key]] if key in orders
                else [row[key] for row in rows])
        np.testing.assert_array_equal(report.column(key), want, err_msg=key)


def test_report_outputs_deterministic(tmp_path):
    case = smooth_sine_case()
    rep = run_convergence(case, 0, [2, 4], method="classical")
    csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rep.write_csv(csv1)
    rep.write_csv(csv2)
    assert csv1.read_bytes() == csv2.read_bytes()
    header = csv1.read_text().splitlines()[0]
    assert header == "level,h,e_H1,e_stab,e_L2,e_super,best_H1,ratio,eoc_H1,eoc_L2"

    rep.write_json(tmp_path / "a.json")
    data = json.loads((tmp_path / "a.json").read_text())
    assert data["case"] == "smooth-sine"
    assert len(data["rows"]) == 2
    paths = rep.write_gnuplot(tmp_path, "study")
    assert sorted(p.split("_")[-1] for p in paths) == [
        "best.dat", "h1.dat", "l2.dat", "super.dat",
    ]
    for p in paths:
        lines = open(p).read().splitlines()
        assert lines[0] == "# h error"
        assert len(lines) == 3


def test_corner_singular_rate_enters_alpha_regime():
    # optional case: at p = 1 the smooth bulk converges away and the measured
    # order bends toward the corner exponent 2/3, with a bounded
    # quasi-optimality ratio
    case = get_case("corner-singular", 1)
    rep = run_convergence(case, 1, [2, 4, 8, 16], method="smoothed")
    rates = [r["eoc_H1"] for r in rep.rows[1:]]
    assert rates[-1] < rates[0]
    assert 0.6 < rates[-1] < 0.95
    ratios = rep.column("ratio")
    assert not all(b > a for a, b in zip(ratios, ratios[1:]))
    assert max(ratios) <= 1.5 * min(ratios)


def test_supercloseness_column_decays_faster():
    case = smooth_sine_case()
    rep = run_convergence(case, 0, [8, 16], method="smoothed")
    hs = rep.column("h")
    super_rate = eoc(rep.column("e_super"), hs)[-1]
    energy_rate = eoc(rep.energy_errors(), hs)[-1]
    assert super_rate - energy_rate >= 0.8


@pytest.mark.parametrize("p", [0, 3])
def test_no_load_or_error_evaluation_covers_more_than_a_cell_block(monkeypatch, p):
    # the load and the error integrands are evaluated one block of
    # CELL_BLOCK cells at a time: on 2,048 cells (8 blocks) no cell
    # quadrature of the space, of either right-hand side, of the solve or
    # of the four error functions covers more cells
    covered = []

    def recorded(mesh, rule, cells=slice(None)):
        pts, w = cell_quadrature(mesh, rule, cells)
        covered.append(len(w))
        return pts, w

    for module in (hho.system, hho.analysis, hho.local_ops):
        monkeypatch.setattr(module, "cell_quadrature", recorded)
    case = get_case("smooth-sine", p)
    space = HHOSpace(build_unit_square(32), p)
    for method in METHODS:
        vec = solve_load(space, case.load, method)
        error_h1_broken(space, case.grad_u, vec)
        error_l2(space, case.u, vec)
        supercloseness(space, case.u, vec)
        best_error_h1(space, case.u, case.grad_u)
    assert space.mesh.num_cells == 8 * CELL_BLOCK
    assert covered and max(covered) <= CELL_BLOCK, max(covered)
