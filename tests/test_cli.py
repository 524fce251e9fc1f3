import inspect
import json
import os

import numpy as np
import pytest

import hho.cli
from hho.analysis import get_case, run_convergence
from hho.cli import main
from hho.verify import SUITE_DEFAULTS


def write_config(path, **kwargs):
    with open(path, "w") as fh:
        json.dump(kwargs, fh)
    return str(path)


T_JUNCTION_MESH = """\
# square with the diagonal split on one side only: not matching
5 3
0 0
1 0
1 1
0 1
0.5 0.5
0 1 4
1 2 4
0 2 3
"""


SQUARE_MESH = """\
# unit square, two triangles
4 2
0 0
1 0
1 1
0 1
0 1 2
0 2 3
"""


UNUSED_VERTEX_MESH = """\
# unit square, two triangles, and a vertex at (2, 2) that no cell uses
5 2
0 0
1 0
1 1
0 1
2 2
0 1 2
0 2 3
"""


def test_verify_passes_and_is_reproducible(tmp_path):
    cfg = write_config(
        tmp_path / "v.json", degrees=[0], resolutions=[2, 4],
        random_fields=5, seed=11,
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    r1 = (out1 / "verify_report.json").read_bytes()
    r2 = (out2 / "verify_report.json").read_bytes()
    assert r1 == r2
    report = json.loads(r1)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"reconstruction-identity", "kernel-stab", "coercivity-min-eig",
            "moment-cell", "moment-face", "conformity", "orthogonality",
            "condensation", "discrete-consistency"} <= names


@pytest.mark.parametrize("fields", [
    {"averaging": ["median"]},
    {"averaging": []},
    {"degrees": ["a"]},
    {"resolutions": [0]},
    {"resolutions": []},
    {"random_fields": 0},
    {"seed": -3},
    {"mesh": 5},
    {"degrees": [1, 1]},
    {"resolutions": [2, 2]},
    {"averaging": ["mean", "mean"]},
], ids=["averaging", "no-averaging", "degree-type", "resolution-zero",
        "no-resolutions", "no-random-fields", "negative-seed", "mesh-type",
        "repeated-degree", "repeated-resolution", "repeated-averaging"])
def test_verify_bad_config_exits_2_before_work(tmp_path, capsys, fields):
    cfg = write_config(tmp_path / "v.json", **fields)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hho: config error:") and err.count("\n") == 1
    assert not out.exists()


def test_verify_corrupted_mesh_fails_matching(tmp_path):
    mesh_path = tmp_path / "bad.mesh"
    mesh_path.write_text(T_JUNCTION_MESH)
    cfg = write_config(
        tmp_path / "v.json", degrees=[0], resolutions=[2], random_fields=2,
    )
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--mesh", str(mesh_path)])
    assert code == 1
    report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
    failed = [c for c in report["checks"] if not c["passed"]]
    assert any(c["name"] == "mesh-matching" for c in failed)


def test_verify_report_names_the_mesh_file_not_its_path(tmp_path):
    # the same mesh checked from two directories gives the same report
    cfg = write_config(
        tmp_path / "v.json", degrees=[0], resolutions=[2], random_fields=2,
    )
    reports = []
    for name in ("a", "b"):
        where = tmp_path / name
        where.mkdir()
        (where / "square.mesh").write_text(SQUARE_MESH)
        out = where / "out"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--mesh", str(where / "square.mesh")]) == 0
        reports.append((out / "verify_report.json").read_bytes())
    assert reports[0] == reports[1]
    record = json.loads(reports[0])["checks"][0]
    assert record["name"] == "mesh-matching"
    assert record["variant"] == "square.mesh"


@pytest.mark.parametrize("command, fields", [
    ("converge", {"degree": True}),
    ("converge", {"quad_extra": True}),
    ("solve", {"degree": True}),
    ("solve", {"level": True}),
    ("solve", {"quad_extra": False}),
    ("verify", {"seed": True}),
    ("verify", {"random_fields": True}),
], ids=["converge-degree", "converge-quad-extra", "solve-degree", "solve-level",
        "solve-quad-extra", "verify-seed", "verify-random-fields"])
def test_boolean_for_an_integer_field_exits_2(tmp_path, capsys, command, fields):
    # bool subclasses int in Python; a JSON boolean is still no integer
    config = {
        "converge": {"case": "smooth-sine", "degree": 0, "levels": [2, 4]},
        "solve": {"case": "smooth-sine", "degree": 0, "level": 2},
        "verify": {"degrees": [0], "resolutions": [2], "random_fields": 2},
    }[command]
    config.update(fields)
    cfg = write_config(tmp_path / "c.json", **config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hho: config error:") and err.count("\n") == 1
    assert not out.exists()


def test_config_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["verify", "--config", str(missing)]) == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["verify", "--config", str(bad_json)]) == 2

    no_field = write_config(tmp_path / "c.json", degree=0)
    assert main(["converge", "--config", no_field]) == 2

    bad_levels = write_config(tmp_path / "l.json", case="smooth-sine",
                              degree=0, levels=[4])
    assert main(["converge", "--config", bad_levels]) == 2

    too_high = write_config(tmp_path / "p.json", case="smooth-sine",
                            degree=7, levels=[2, 4])
    assert main(["converge", "--config", too_high]) == 2


@pytest.mark.parametrize("command", ["verify", "converge", "solve"])
@pytest.mark.parametrize("text", ["[1, 2]", '"verify"', "null"],
                         ids=["list", "string", "null"])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, command, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"hho: config error: config {cfg}: the top level must be a JSON object\n"
    assert not out.exists()


def test_converge_refuses_the_mesh_flag(tmp_path, capsys):
    # converge always solves on the case's own mesh family
    mesh_path = tmp_path / "square.mesh"
    mesh_path.write_text(SQUARE_MESH)
    cfg = write_config(tmp_path / "c.json", case="smooth-sine", degree=0,
                       levels=[2, 4])
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--config", cfg, "--out", str(out),
              "--mesh", str(mesh_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mesh" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fields", [
    {"case": "no-such-case"},
    {"method": "galerkin"},
    {"averaging": "median"},
    {"solver": {"method": "gmres"}},
    {"case": "kink-aligned", "levels": [3, 6]},
    {"levels": [2, -1]},
    {"levels": [2, "a"]},
    {"levels": [2, True]},
    {"case": "poly-consistency", "levels": [-1, 0]},
], ids=["case", "method", "averaging", "solver", "odd-kink-level",
        "negative-level", "non-integer-level", "boolean-level",
        "negative-refinement"])
def test_converge_bad_choice_exits_2_before_work(tmp_path, capsys, fields):
    config = {"case": "smooth-sine", "degree": 0, "levels": [2, 4]}
    config.update(fields)
    cfg = write_config(tmp_path / "c.json", **config)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hho: config error:") and err.count("\n") == 1
    assert not out.exists()


def test_converge_repeated_level_is_config_error(tmp_path, capsys):
    # two rows with the same h would give an empirical order of 0/0
    cfg = write_config(tmp_path / "c.json", case="smooth-sine", degree=0,
                       levels=[4, 4])
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "hho: config error: level 4 is repeated in 'levels'\n"
    assert not out.exists()


@pytest.mark.parametrize("case, levels, message", [
    ("smooth-sine", [4], "converge needs at least 2 levels"),
    ("kink-aligned", [4, 5],
     "level 5: kink-aligned needs an even grid so x = 1/2 is a mesh line"),
    ("smooth-sine", [2, 4, 2], "level 2 is repeated in 'levels'"),
], ids=["too-few", "odd-kink-level", "repeated"])
def test_run_convergence_and_converge_refuse_levels_alike(tmp_path, capsys, case,
                                                         levels, message):
    # one level-list check serves the library and the command line
    with pytest.raises(ValueError) as exc:
        run_convergence(get_case(case, 0), 0, levels)
    assert str(exc.value) == message
    cfg = write_config(tmp_path / "c.json", case=case, degree=0, levels=levels)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"hho: config error: {message}\n"
    assert not out.exists()


def test_converge_writes_reports(tmp_path):
    cfg = write_config(
        tmp_path / "c.json", case="smooth-sine", degree=0, levels=[2, 4],
        method="classical",
    )
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    csv_path = out / "smooth-sine_p0_classical.csv"
    assert csv_path.exists()
    assert (out / "smooth-sine_p0_classical.json").exists()
    for norm in ("h1", "l2", "super", "best"):
        assert (out / f"smooth-sine_p0_classical_{norm}.dat").exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "level,h,e_H1,e_stab,e_L2,e_super,best_H1,ratio,eoc_H1,eoc_L2"
    # byte-identical rerun
    first = csv_path.read_bytes()
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    assert csv_path.read_bytes() == first


def test_converge_classical_on_divergence_load_is_config_error(tmp_path):
    cfg = write_config(
        tmp_path / "c.json", case="kink-aligned", degree=0, levels=[2, 4],
        method="classical",
    )
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cg_non_convergence_is_one_solver_error_line(tmp_path, capsys, monkeypatch):
    import hho.system

    monkeypatch.setattr(hho.system, "cg", lambda A, b, **kw: (np.zeros_like(b), 1))
    cfg = write_config(
        tmp_path / "c.json", case="smooth-sine", degree=0, levels=[2, 4],
        method="classical", solver={"method": "cg"},
    )
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "hho: solver error: CG failed to converge (info=1)\n"
    assert "Traceback" not in err


def test_solve_cg_non_convergence_is_one_solver_error_line(tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(hho.system, "cg", lambda A, b, **kw: (np.zeros_like(b), 1))
    cfg = write_config(
        tmp_path / "s.json", case="smooth-sine", degree=0, level=2,
        method="classical", solver={"method": "cg"},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "hho: solver error: CG failed to converge (info=1)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("solver", [{"method": "gmres"}, 5],
                         ids=["unknown-method", "not-an-object"])
def test_solve_bad_solver_exits_2_before_work(tmp_path, capsys, solver):
    cfg = write_config(tmp_path / "s.json", case="smooth-sine", degree=1,
                       level=4, solver=solver)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hho: config error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("converge", {"levels": [2, 4]}),
    ("solve", {"level": 2}),
], ids=["converge", "solve"])
def test_unknown_solver_method_names_the_nested_field(tmp_path, capsys,
                                                      command, config):
    config.update(case="smooth-sine", degree=0, solver={"method": "gmres"})
    cfg = write_config(tmp_path / "c.json", **config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "hho: config error: config field 'solver.method' is 'gmres'; "
        "expected one of direct, cg\n"
    )


@pytest.mark.parametrize("command, config", [
    ("converge", {"levels": [2, 4]}),
    ("solve", {"level": 2}),
], ids=["converge", "solve"])
def test_classical_on_divergence_load_is_one_inapplicable_line(tmp_path, capsys,
                                                              command, config):
    # the classical right-hand side refuses the load itself, after the
    # (first) space is built and before any output is written
    config.update(case="kink-aligned", degree=0, method="classical")
    cfg = write_config(tmp_path / "c.json", **config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "hho: method not applicable: classical right-hand side is undefined "
        "for divergence-form loads; use the smoothed method\n"
    )
    assert not out.exists()


def test_solve_classical_with_zero_load_on_divergence_case(tmp_path):
    # the refusal follows the load actually solved for, not the case
    cfg = write_config(tmp_path / "s.json", case="kink-aligned", degree=0,
                       level=2, method="classical", load="zero")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "solution.csv").exists()


# each command with a config it accepts, and the first call that does work
COMMANDS_AND_WORK = [
    ("verify", {"degrees": [0], "resolutions": [1], "random_fields": 1},
     "run_verification"),
    ("converge", {"case": "smooth-sine", "degree": 0, "levels": [2, 4]},
     "run_convergence"),
    ("solve", {"case": "smooth-sine", "degree": 0, "level": 2}, "HHOSpace"),
]


def refuse_work(monkeypatch, work):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(hho.cli, work, no_work)


@pytest.mark.parametrize("command, config, work", [
    ("verify", {"degrees": [0], "resolutions": [1], "random_fields": 1,
                "out": 5}, "run_verification"),
    ("converge", {"case": "smooth-sine", "degree": 0, "levels": [2, 4],
                  "out": ["x"]}, "run_convergence"),
    ("solve", {"case": "smooth-sine", "degree": 0, "level": 2, "out": 5},
     "HHOSpace"),
], ids=["verify", "converge", "solve"])
def test_non_string_out_exits_2_before_work(tmp_path, capsys, monkeypatch,
                                            command, config, work):
    refuse_work(monkeypatch, work)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", **config)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "hho: config error: config field 'out' has the wrong type\n"
    )
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("command, config, work", COMMANDS_AND_WORK,
                         ids=["verify", "converge", "solve"])
def test_empty_out_exits_2_before_work(tmp_path, capsys, monkeypatch,
                                       command, config, work):
    # os.makedirs("") would fail only after the work
    refuse_work(monkeypatch, work)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", **config, out="")
    assert main([command, "--config", cfg]) == 2
    assert main([command, "--config", cfg, "--out", ""]) == 2
    assert capsys.readouterr().err == (
        "hho: config error: config field 'out' must not be empty\n"
        "hho: config error: --out must not be empty\n"
    )
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("command, args, config, work, source", [
    ("solve", ["--mesh", ""], {"case": "smooth-sine", "degree": 0, "level": 2},
     "HHOSpace", "--mesh"),
    ("verify", ["--mesh", ""], {"degrees": [0], "resolutions": [1]},
     "run_verification", "--mesh"),
    ("verify", [], {"degrees": [0], "resolutions": [1], "mesh": ""},
     "run_verification", "config field 'mesh'"),
], ids=["solve-flag", "verify-flag", "verify-config"])
def test_empty_mesh_exits_2_before_work(tmp_path, capsys, monkeypatch, command,
                                        args, config, work, source):
    # an empty name was once skipped (the built-in meshes ran) or read as a
    # file that cannot be read
    refuse_work(monkeypatch, work)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", **config)
    assert main([command, "--config", cfg, *args]) == 2
    assert capsys.readouterr().err == (
        f"hho: config error: {source} must not be empty\n"
    )
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("command, config, work", COMMANDS_AND_WORK,
                         ids=["verify", "converge", "solve"])
@pytest.mark.parametrize("out, culprit", [
    ("afile", "afile"),
    (os.path.join("afile", "sub"), "afile"),
    ("alink", "alink"),
], ids=["the-file", "below-the-file", "dangling-link"])
def test_out_that_names_a_file_exits_2_before_work(tmp_path, capsys, monkeypatch,
                                                   command, config, work, out,
                                                   culprit):
    # os.makedirs would fail only after the work
    refuse_work(monkeypatch, work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept\n")
    os.symlink("missing", tmp_path / "alink")
    cfg = write_config(tmp_path / "c.json", **config, out=out)
    assert main([command, "--config", cfg]) == 2
    assert main([command, "--config", cfg, "--out", out]) == 2
    message = f"{out!r}: {tmp_path / culprit} is not a directory\n"
    assert capsys.readouterr().err == (
        f"hho: config error: config field 'out' {message}"
        f"hho: config error: --out {message}"
    )
    assert sorted(os.listdir(tmp_path)) == ["afile", "alink", "c.json"]
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_empty_verify_config_runs_the_default_suite(tmp_path, monkeypatch):
    # `hho verify` with {} and run_verification() read the one default suite;
    # the suite itself is not run
    calls = []

    def record(**kwargs):
        calls.append(kwargs)
        return {"checks": [], "passed": True}

    monkeypatch.setattr(hho.cli, "run_verification", record)
    cfg = write_config(tmp_path / "v.json")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == [{**SUITE_DEFAULTS, "mesh_path": None}]
    params = inspect.signature(hho.verify.run_verification).parameters
    assert {key: params[key].default for key in SUITE_DEFAULTS} == SUITE_DEFAULTS


def test_solve_zero_load_writes_zero_dump(tmp_path):
    cfg = write_config(
        tmp_path / "s.json", case="smooth-sine", degree=1, level=2,
        method="classical", load="zero",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "x,y,value"
    values = np.array([float(l.split(",")[2]) for l in lines[1:]])
    assert np.abs(values).max() == 0.0
    first = (out / "solution.csv").read_bytes()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "solution.csv").read_bytes() == first


def test_solve_odd_kink_level_exits_2_before_work(tmp_path, capsys):
    # x = 1/2 is a mesh line of the kink-aligned grids only at even levels
    cfg = write_config(tmp_path / "s.json", case="kink-aligned", degree=0, level=3)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hho: config error: level 3:") and err.count("\n") == 1
    assert not out.exists()


def test_solve_level_the_mesh_family_cannot_build_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.json", case="smooth-sine", degree=0, level=0)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hho: config error: level 0:") and err.count("\n") == 1
    assert not out.exists()


def test_solve_smooth_case_max_norm_sanity(tmp_path):
    cfg = write_config(
        tmp_path / "s.json", case="smooth-sine", degree=1, level=8,
        method="smoothed",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "solution.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in l.split(",")] for l in lines])
    exact = np.sin(np.pi * data[:, 0]) * np.sin(np.pi * data[:, 1])
    assert np.abs(data[:, 2] - exact).max() < 0.05


def test_solve_with_external_mesh(tmp_path):
    from hho.mesh import build_unit_square, write_mesh_file

    mesh_path = tmp_path / "square.mesh"
    write_mesh_file(build_unit_square(3), mesh_path)
    cfg = write_config(
        tmp_path / "s.json", case="smooth-sine", degree=0, method="smoothed",
    )
    out = tmp_path / "out"
    code = main(["solve", "--config", cfg, "--out", str(out),
                 "--mesh", str(mesh_path)])
    assert code == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert len(lines) == 1 + 18 * 3  # 18 cells, 3 lattice points at degree 1


@pytest.mark.parametrize("text, problem", [
    (T_JUNCTION_MESH, "vertex 4 hangs on cell 2 (mesh is not matching)"),
    # one cell listed twice, and a vertex no cell uses
    ("4 2\n0 0\n1 0\n0 1\n5 5\n0 1 2\n0 1 2\n",
     "normals on interior face 0 are not opposite"),
    (UNUSED_VERTEX_MESH, "vertex 4 is used by no cell"),
], ids=["t-junction", "duplicate-cell", "unused-vertex"])
def test_solve_non_matching_mesh_is_refused(tmp_path, capsys, text, problem):
    mesh_path = tmp_path / "bad.mesh"
    mesh_path.write_text(text)
    cfg = write_config(tmp_path / "s.json", case="smooth-sine", degree=0)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--mesh", str(mesh_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"hho: config error: --mesh {mesh_path}: {problem}\n"
    assert not out.exists()


def test_verify_mesh_with_unused_vertex_fails_matching(tmp_path):
    mesh_path = tmp_path / "unused.mesh"
    mesh_path.write_text(UNUSED_VERTEX_MESH)
    cfg = write_config(tmp_path / "v.json", degrees=[0], resolutions=[2],
                       random_fields=2)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--mesh", str(mesh_path)]) == 1
    report = json.loads((out / "verify_report.json").read_text())
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [(c["name"], c["variant"], c["residual"]) for c in failed] == [
        ("mesh-matching", "unused.mesh", 1.0)]


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_mesh_file_is_refused(tmp_path, capsys, bad):
    mesh_path = tmp_path / "bad.mesh"
    mesh_path.write_text(f"4 2\n0 0\n1 0\n1 {bad}\n0 1\n0 1 2\n0 2 3\n")
    cfg = write_config(tmp_path / "s.json", case="smooth-sine", degree=0)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--mesh", str(mesh_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hho: config error: --mesh") and err.count("\n") == 1
    assert "finite" in err
    assert not out.exists()

    cfg = write_config(tmp_path / "v.json", degrees=[0], resolutions=[2],
                       random_fields=2)
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--mesh", str(mesh_path)]) == 1
    assert "verify: mesh check failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_mesh_file_is_refused(tmp_path, capsys, kind):
    mesh_path = tmp_path / "meshes"
    if kind == "directory":
        mesh_path.mkdir()
    reason = {"missing": "No such file or directory",
              "directory": "Is a directory"}[kind]
    cfg = write_config(tmp_path / "s.json", case="smooth-sine", degree=0)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--mesh", str(mesh_path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"hho: config error: --mesh {mesh_path}: {mesh_path}: "
                   f"cannot read: {reason}\n")
    assert not out.exists()

    cfg = write_config(tmp_path / "v.json", degrees=[0], resolutions=[2],
                       random_fields=2)
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--mesh", str(mesh_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"verify: mesh check failed: {mesh_path}: cannot read: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["converge", "solve"])
@pytest.mark.parametrize("source", ["config", "env"])
def test_negative_quad_extra_exits_2_before_work(tmp_path, capsys, monkeypatch,
                                                 command, source):
    # fewer load points than the smoothed test functions need would
    # under-integrate the load and still exit 0
    config = {
        "converge": {"case": "smooth-sine", "degree": 1, "levels": [4, 8]},
        "solve": {"case": "smooth-sine", "degree": 1, "level": 4},
    }[command]
    if source == "config":
        config["quad_extra"] = -3
        want = "config field 'quad_extra' must be non-negative"
    else:
        monkeypatch.setenv("HHO_QUAD_EXTRA", "-3")
        want = "HHO_QUAD_EXTRA='-3' must be non-negative"
    cfg = write_config(tmp_path / "c.json", **config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"hho: config error: {want}\n"
    assert not out.exists()


def test_quad_extra_env_override(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path / "s.json", case="smooth-sine", degree=0, level=2,
        method="smoothed",
    )
    monkeypatch.setenv("HHO_QUAD_EXTRA", "4")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    monkeypatch.setenv("HHO_QUAD_EXTRA", "lots")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["converge", "solve"])
@pytest.mark.parametrize("case", ["poly-consistency", "smooth-sine"])
@pytest.mark.parametrize("degree", [-1, 4])
def test_degree_out_of_range_exits_2_before_work(tmp_path, capsys, command,
                                                 case, degree):
    # the poly-consistency case builds its degree-(p+1) interpolant from the
    # degree, so the range is checked before the case is made
    config = {
        "converge": {"case": case, "degree": degree, "levels": [1, 2]},
        "solve": {"case": case, "degree": degree, "level": 1},
    }[command]
    cfg = write_config(tmp_path / "c.json", **config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "hho: config error: config field 'degree' must be an integer in [0, 3]\n"
    )
    assert not out.exists()
