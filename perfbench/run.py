"""HHO solver benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/hho`).
Every operation (one `hho converge` or `hho verify` command) runs in a fresh
child process (`child.py`), one at a time: a closed loop with a single
caller. With `--trace 0` the loop keeps starting a set-up probe and then a
child while both fit in S seconds (at least once) and reports the
end-to-end metrics as medians over them. With `--trace 1` it runs the
workload once untraced and once traced (`spans.py`) and reports per-layer
self times and exact counts. Inputs come from the seed (`inputs.py`).
Outputs are checked outside every timed region. The last line
of standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}; the lines before it give the environment, the inputs and each
metric with its unit. A record of the run goes to .bench_work/results/.
`--workload all` runs every workload.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT = 150   # seconds; a child still running then is killed
REL_TOL = 1e-3        # converge errors against the stored reference

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "success_frac": "ratio",
}


def child_env():
    """Children import hho from the checkout and run BLAS on one thread."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # CPU time equals wall time at one thread; default threading added
    # only run-to-run noise on two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("HHO_QUAD_EXTRA", None)  # would change the converge outputs
    return env


def spawn(script, args, log_path):
    """Run perfbench/<script> in a fresh interpreter and wait for it."""
    cmd = [sys.executable, os.path.join(HERE, script), *args]
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.monotonic()
    # wait4 reaped the child; record that so Popen never waits for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "t_spawn": t_spawn, "t_exit": t_exit,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def run_child(run_dir, index, extra=()):
    result_path = os.path.join(run_dir, f"child-{index}.json")
    rec = spawn("child.py", ["--inputs", run_dir, "--result", result_path,
                             *extra],
                os.path.join(run_dir, f"child-{index}.log"))
    rec["result"] = _load_json(result_path)
    if rec["result"] is not None:
        rec["setup_s"] = rec["result"]["t_ready"] - rec["t_spawn"]
    return rec


# -- correctness ---------------------------------------------------------

def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def check_converge(name, spec, run_dir, rec):
    cfg = spec["config"]
    levels = cfg["levels"]
    stem = f"{cfg['case']}_p{cfg['degree']}_{cfg['method']}"
    report = _load_json(os.path.join(run_dir, "out", stem + ".json"))
    if rec["exit"] != 0 or rec["result"] is None or report is None \
            or rec["result"]["exit_code"] != 0:
        return len(levels), len(levels), ["command failed"]
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[name]
    rows = report["rows"]
    bad = set()
    notes = []
    if [r["level"] for r in rows] != levels:
        return len(levels), len(levels), ["levels differ from the config"]
    for i, (row, ref) in enumerate(zip(rows, reference)):
        for key, want in ref.items():
            if key != "level" and \
                    not abs(row[key] - want) <= REL_TOL * abs(want):
                bad.add(i)
                notes.append(f"level {row['level']}: {key} {row[key]!r} "
                             f"vs reference {want!r}")
    finest = rows[-1]
    for key, (want, tol) in spec["eoc"].items():
        if not abs(finest[key] - want) <= tol:
            bad.add(len(rows) - 1)
            notes.append(f"finest {key} {finest[key]:.4f} not within {tol} "
                         f"of {want}")
    if "ratio_spread" in spec:
        ratios = [r["ratio"] for r in rows]
        if not max(ratios) <= spec["ratio_spread"] * min(ratios):
            bad.add(len(rows) - 1)
            notes.append(f"quasi-optimality ratios {ratios} not bounded")
    return len(levels), len(bad), notes


def check_verify(spec, run_dir, rec):
    expected = spec["checks"]
    report = _load_json(os.path.join(run_dir, "out", "verify_report.json"))
    if rec["result"] is None or report is None:
        return expected, expected, ["command failed"]
    passed = sum(1 for c in report["checks"] if c["passed"])
    notes = [f"{c['name']} failed" for c in report["checks"] if not c["passed"]]
    if len(report["checks"]) != expected:
        notes.append(f"{len(report['checks'])} checks, expected {expected}")
        passed = 0
    if rec["result"]["exit_code"] != 0 or not report["passed"]:
        notes.append(f"exit code {rec['result']['exit_code']}")
    return expected, expected - passed, notes


def check(name, run_dir, rec):
    spec = WORKLOADS[name]
    if spec["kind"] == "converge":
        return check_converge(name, spec, run_dir, rec)
    return check_verify(spec, run_dir, rec)


# -- metrics -------------------------------------------------------------

def end_to_end(children, probes, attempted, failed):
    done = [c for c in children if c["result"] is not None]
    if not done:
        return None
    values = {
        "wall_s": statistics.median(c["t_exit"] - c["t_spawn"] for c in children),
        "cpu_s": statistics.median(c["cpu_s"] for c in children),
        "setup_s": statistics.median(c["setup_s"] for c in probes + done),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in children),
        "success_frac": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(traced, untraced):
    summary = traced["result"]["trace"]
    wall = traced["t_exit"] - traced["t_spawn"]
    values = {k: {"value": v, "unit": "s"} for k, v in summary["layers"].items()}
    values.update({k: {"value": v, "unit": "count"}
                   for k, v in summary["counts"].items()})
    extra = {
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(summary["layers"].values()),
        "trace.overhead_s": wall - (untraced["t_exit"] - untraced["t_spawn"]),
    }
    values.update({k: {"value": v, "unit": "s"} for k, v in extra.items()})
    return values


def counts_drift(name, digest, counts):
    """Compare exact counts with the first traced run of the same source.

    The baseline is keyed by the digest of src/hho, so a change to the
    program starts a new baseline instead of failing against the old one.
    """
    path = os.path.join(WORK, f"counts-{name}-{digest[:12]}.json")
    first = _load_json(path)
    if first is None:
        with open(path, "w") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
        return []
    return [f"{k}: {counts.get(k)} here, {v} in the first traced run"
            for k, v in sorted(first.items()) if counts.get(k) != v]


# -- environment ---------------------------------------------------------

def commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # git would report an enclosing repository instead
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "hho")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return digest.hexdigest()


# -- one run -------------------------------------------------------------

def run_workload(name, seed, seconds, trace):
    spec = WORKLOADS[name]
    digest = source_digest()
    run_dir = os.path.join(WORK, f"run-{os.getpid()}-{name}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    gen = spawn("inputs.py", ["--workload", name, "--seed", str(seed),
                              "--out", run_dir],
                os.path.join(run_dir, "inputs.log"))
    manifest = _load_json(os.path.join(run_dir, "inputs.json"))
    if gen["exit"] != 0 or manifest is None:
        raise RuntimeError(f"input generation failed, see {run_dir}/inputs.log")

    probes = []

    def probe():
        rec = run_child(run_dir, f"probe{len(probes)}", ["--probe"])
        if rec["result"] is None:
            raise RuntimeError(f"set-up failed, see {run_dir}/"
                               f"child-probe{len(probes)}.log")
        probes.append(rec)

    attempted = failed = 0
    notes = []
    children = []

    def one(index, extra=()):
        nonlocal attempted, failed
        shutil.rmtree(os.path.join(run_dir, "out"), ignore_errors=True)
        rec = run_child(run_dir, index, extra)
        att, fail, why = check(name, run_dir, rec)
        rec["attempted"], rec["failed"] = att, fail
        attempted, failed = attempted + att, failed + fail
        notes.extend(why)
        children.append(rec)
        return rec

    if trace:
        probe()
        untraced = one(0)
        traced = one(1, ["--trace"])
        if traced["result"] is None or "trace" not in traced["result"]:
            metrics = None
            notes.append("traced child failed")
        else:
            metrics = per_layer(traced, untraced)
            drift = counts_drift(name, digest,
                                 traced["result"]["trace"]["counts"])
            notes.extend(f"count drift: {d}" for d in drift)
            failed += bool(drift)
    else:
        # A set-up probe before every child spreads the set-up samples over
        # the run like the children. Start another pair only while one
        # more of the mean length fits.
        start = time.monotonic()
        while True:
            probe()
            one(len(children))
            elapsed = time.monotonic() - start
            if elapsed * (1 + 1 / len(children)) > seconds:
                break
        metrics = end_to_end(children, probes, attempted, failed)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": spec["why"],
        "environment": {
            **probes[0]["result"]["environment"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "commit": commit(),
            "src_sha256": digest,
            "seed": seed,
        },
        "inputs": manifest,
        "attempted": attempted, "failed": failed, "notes": notes,
        "children": children, "probes": probes, "metrics": metrics,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out = os.path.join(WORK, "results",
                       f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
    if failed == 0 and metrics is not None:
        shutil.rmtree(run_dir)
    return record


def report(record):
    env = record["environment"]
    print("# env " + json.dumps(env, sort_keys=True))
    print("# inputs " + json.dumps(record["inputs"], sort_keys=True))
    for note in record["notes"]:
        print(f"# FAILED {note}")
    print(f"{record['workload']}: {len(record['children'])} children, "
          f"{record['attempted']} operations, {record['failed']} failed "
          f"(failed_frac {record['failed'] / record['attempted']:.6g})")
    for key, metric in (record["metrics"] or {}).items():
        print(f"  {key:<22} {metric['value']:>14.6g} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hho", "cli.py")):
        print("run.py: no src/hho here; run it from the root of a source "
              "checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "/"
        for key, metric in (record["metrics"] or {}).items():
            metrics[prefix + key] = metric
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    complete = all(r["metrics"] is not None for r in records)
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
