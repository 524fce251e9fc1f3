"""Batch driver: verification suites, convergence studies, single solves.

Usage: hho {verify | solve} --config cfg.json [--out DIR] [--mesh PATH]
       hho converge --config cfg.json [--out DIR]

The JSON config supplies the run parameters (see README for the schema); the
flags override the corresponding config keys. All file outputs use '.' as the
decimal separator and 17 significant digits, and fixed iteration orders make
reruns byte-identical for a given seed. Exit codes: 0 success, 1 check
failure, 2 config error, inapplicable method or solver error (CG did not
converge, or the face system is not positive definite).
"""

import argparse
import json
import os
import sys

import numpy as np

from .analysis import (
    CASES, METHODS, check_levels, first_repeat, get_case, run_convergence, solve_load,
)
from .local_ops import P_MAX, HHOSpace, max_quad_extra, smoother_degree
from .mesh import MeshError, check_matching, read_mesh_file
from .polyquad import MAX_DEGREE, UnsupportedDegreeError, cell_basis_values
from .smoothing import AVERAGING_VARIANTS, lattice_multis
from .system import SOLVER_METHODS, LoadFunctional, MethodNotApplicableError, SolverError
from .verify import SUITE_DEFAULTS, run_verification

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2


# the config fields each command reads (README's schemas); any other field
# is refused, so a misspelt one cannot fall back to its default unseen
CONFIG_FIELDS = {
    "verify": ("degrees", "resolutions", "seed", "random_fields", "averaging",
               "mesh", "out"),
    "converge": ("case", "degree", "levels", "method", "averaging", "solver",
                 "quad_extra", "out"),
    "solve": ("case", "degree", "level", "method", "averaging", "load",
              "solver", "quad_extra", "out"),
}
SOLVER_FIELDS = ("method",)


class ConfigError(ValueError):
    pass


def _load_config(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path}: the top level must be a JSON object")
    return config


def _refuse_unknown(config, fields, prefix=""):
    """Refuse the first field of `config` outside `fields`."""
    for key in config:
        if key not in fields:
            raise ConfigError(
                f"unknown config field '{prefix}{key}'; expected one of "
                f"{', '.join(fields)}"
            )


def _get(config, key, default=None, required=False, kind=None, prefix=""):
    """`config[key]`; `prefix` names the enclosing object in messages."""
    if key not in config:
        if required:
            raise ConfigError(f"config field '{prefix}{key}' is required")
        return default
    value = config[key]
    # bool subclasses int, but a JSON true or false is no integer
    if kind is not None and (
        not isinstance(value, kind) or (kind is int and isinstance(value, bool))
    ):
        raise ConfigError(f"config field '{prefix}{key}' has the wrong type")
    return value


def _choice(config, key, choices, default=None, prefix=""):
    """A string field that must be one of `choices`; required without default."""
    value = _get(config, key, default, required=default is None, kind=str,
                 prefix=prefix)
    if value not in choices:
        raise ConfigError(
            f"config field '{prefix}{key}' is {value!r}; "
            f"expected one of {', '.join(choices)}"
        )
    return value


def _quad_extra(config, degree):
    """`quad_extra`: at least 0, and small enough that the load rule's
    degree stays within `MAX_DEGREE`."""
    value = _get(config, "quad_extra", 2, kind=int)
    if value < 0:
        raise ConfigError("config field 'quad_extra' must be non-negative")
    if value > max_quad_extra(degree):
        raise ConfigError(
            "config field 'quad_extra' must be at most "
            f"{max_quad_extra(degree)} at degree {degree} (quadrature degree "
            f"{smoother_degree(degree)} + quad_extra <= {MAX_DEGREE})"
        )
    return value


def _out(args, config):
    """The output directory, checked before any work and created after it:
    a non-empty path whose nearest existing ancestor is a directory."""
    if args.out is not None:
        out, source = args.out, "--out"
    else:
        out, source = _get(config, "out", ".", kind=str), "config field 'out'"
    if not out:
        raise ConfigError(f"{source} must not be empty")
    existing = os.path.abspath(out)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"{source} {out!r}: {existing} is not a directory")
    return out


def _mesh_path(args, config=None):
    """The external mesh file, or None for the built-in meshes: `--mesh`,
    else config field 'mesh' when `config` is given. An empty name is
    refused before any work."""
    if args.mesh is not None:
        path, source = args.mesh, "--mesh"
    else:
        path = None if config is None else _get(config, "mesh")
        source = "config field 'mesh'"
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"{source} must be a file name or null")
    if path == "":
        raise ConfigError(f"{source} must not be empty")
    return path


def _refuse(check, *args):
    """Run a check of the analysis layer; its ValueError is a config error."""
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _fmt(x):
    return f"{x:.17g}"


def _refuse_repeats(key, values):
    """A repeated entry would give records with the same key twice."""
    repeated = first_repeat(values)
    if repeated is not None:
        raise ConfigError(f"{repeated!r} is repeated in '{key}'")


def _int_list(config, key, default, low, high=None):
    """A non-empty list of distinct integers in [low, high] (no upper bound
    if None)."""
    values = _get(config, key, default, kind=list)
    if not values or any(
        type(v) is not int or v < low or (high is not None and v > high)
        for v in values
    ):
        bound = f"in [{low}, {high}]" if high is not None else f">= {low}"
        raise ConfigError(
            f"config field '{key}' must be a non-empty list of integers {bound}"
        )
    _refuse_repeats(key, values)
    return values


def _degree(config):
    """The required 'degree', checked before a case builds anything from it."""
    degree = _get(config, "degree", required=True, kind=int)
    if not 0 <= degree <= P_MAX:
        raise ConfigError(
            f"config field 'degree' must be an integer in [0, {P_MAX}]"
        )
    return degree


def cmd_verify(args, config):
    default = SUITE_DEFAULTS
    degrees = _int_list(config, "degrees", default["degrees"], 0, P_MAX)
    resolutions = _int_list(config, "resolutions", default["resolutions"], 1)
    seed = _get(config, "seed", default["seed"], kind=int)
    if seed < 0:
        raise ConfigError("config field 'seed' must be non-negative")
    random_fields = _get(config, "random_fields", default["random_fields"], kind=int)
    if random_fields < 1:
        raise ConfigError("config field 'random_fields' must be at least 1")
    variants = _get(config, "averaging", default["variants"])
    if isinstance(variants, str):
        variants = [variants]
    if not isinstance(variants, (list, tuple)) or not variants or any(
        v not in AVERAGING_VARIANTS for v in variants
    ):
        raise ConfigError(
            "config field 'averaging' must name one or more of "
            + ", ".join(AVERAGING_VARIANTS)
        )
    _refuse_repeats("averaging", variants)
    mesh_path = _mesh_path(args, config)
    out = _out(args, config)

    try:
        report = run_verification(
            degrees=degrees, resolutions=resolutions, seed=seed,
            random_fields=random_fields, variants=variants, mesh_path=mesh_path,
        )
    except MeshError as exc:
        print(f"verify: mesh check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE

    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "verify_report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        where = ",".join(
            str(check[k]) for k in ("degree", "resolution", "variant")
            if check[k] is not None
        )
        print(f"[{status}] {check['name']:<26s} ({where}) "
              f"residual={_fmt(check['residual'])} tol={_fmt(check['tolerance'])}")
    print(f"verify: {'all checks passed' if report['passed'] else 'FAILURES'} "
          f"-> {path}")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILURE


def _problem(config):
    """The fields `converge` and `solve` share, read and checked before any
    work: the case, its degree, `quad_extra` and the options of `solve_load`."""
    case_name = _choice(config, "case", CASES)
    degree = _degree(config)
    solver = _get(config, "solver", {}, kind=dict)
    _refuse_unknown(solver, SOLVER_FIELDS, prefix="solver.")
    options = {
        "method": _choice(config, "method", METHODS, "smoothed"),
        "averaging": _choice(config, "averaging", AVERAGING_VARIANTS, "mean"),
        "solver": _choice(solver, "method", SOLVER_METHODS, "direct",
                          prefix="solver."),
    }
    quad_extra = _quad_extra(config, degree)
    return get_case(case_name, degree), degree, quad_extra, options


def cmd_converge(args, config):
    case, degree, quad_extra, options = _problem(config)
    levels = _get(config, "levels", required=True, kind=list)
    out = _out(args, config)
    _refuse(check_levels, case, levels)
    report = run_convergence(case, degree, levels, quad_extra=quad_extra, **options)

    os.makedirs(out, exist_ok=True)
    stem = f"{case.name}_p{degree}_{options['method']}"
    csv_path = os.path.join(out, stem + ".csv")
    report.write_csv(csv_path)
    report.write_json(os.path.join(out, stem + ".json"))
    report.write_gnuplot(out, stem)

    for row in report.rows:
        print(
            f"level={row['level']:<4} h={row['h']:.5f} "
            f"eH1={row['e_H1']:.6e} eL2={row['e_L2']:.6e} "
            f"eocH1={row['eoc_H1']:.3f} eocL2={row['eoc_L2']:.3f} "
            f"ratio={row['ratio']:.3f}"
        )
    print(f"converge: wrote {csv_path}")
    return EXIT_OK


def cmd_solve(args, config):
    case, degree, quad_extra, options = _problem(config)
    level = _get(config, "level", 8, kind=int)
    load_kind = _choice(config, "load", ("case", "zero"), "case")
    mesh_path = _mesh_path(args)
    out = _out(args, config)
    if mesh_path is not None:
        try:
            mesh = read_mesh_file(mesh_path)
        except MeshError as exc:
            raise ConfigError(f"--mesh {exc}") from exc  # exc names the path
        problems = check_matching(mesh)
        if problems:
            raise ConfigError(f"--mesh {mesh_path}: {problems[0]}")
    else:
        _refuse(case.level_check, level)
        mesh = case.mesh_for(level)
    space = HHOSpace(mesh, degree, quad_extra=quad_extra)

    if load_kind == "zero":
        load = LoadFunctional(f0=lambda x: np.zeros(x.shape[:-1]))
    else:
        load = case.load
    recon = space.reconstruct(solve_load(space, load, **options))

    bary = lattice_multis(degree + 1) / (degree + 1)
    pts = np.einsum("la,tad->tld", bary, mesh.cell_vertices())
    vals = recon.values_on(cell_basis_values(recon.degree, bary))

    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "solution.csv")
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for t in range(mesh.num_cells):
            for l in range(pts.shape[1]):
                fh.write(
                    f"{_fmt(pts[t, l, 0])},{_fmt(pts[t, l, 1])},{_fmt(vals[t, l])}\n"
                )
    print(f"solve: wrote {path} ({mesh.num_cells * pts.shape[1]} samples)")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hho",
        description="HHO Poisson solver: verification, convergence, solves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("verify", cmd_verify), ("converge", cmd_converge),
                     ("solve", cmd_solve)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        if name != "converge":
            p.add_argument("--mesh", default=None,
                           help="external mesh file (node/element format)")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        _refuse_unknown(config, CONFIG_FIELDS[args.command])
        return args.handler(args, config)
    except (ConfigError, UnsupportedDegreeError) as exc:
        print(f"hho: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MethodNotApplicableError as exc:
        print(f"hho: method not applicable: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SolverError as exc:
        print(f"hho: solver error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
