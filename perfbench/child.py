"""One benchmark operation in a fresh process.

    python3 perfbench/child.py --inputs DIR --result FILE [--trace] [--probe]

Imports hho, notes the monotonic time at which set-up ended, then runs the
workload described by DIR/inputs.json: the `hho converge` or `hho verify`
command, in-process. The parent reads FILE (JSON) after the process has
exited; its own clock gives spawn and exit times, so every time here is on
the shared monotonic clock.
`--probe` stops after set-up and reports the environment instead.
"""

import argparse
import json
import os
import sys
import time

import hho.cli
import numpy as np
import scipy

READY = time.monotonic()

import spans  # noqa: E402  (after READY: not part of the program's set-up)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_cli(manifest, inputs):
    argv = [manifest["kind"], "--config", os.path.join(inputs, "config.json"),
            "--out", os.path.join(inputs, "out")]
    if "mesh" in manifest:
        argv += ["--mesh", os.path.join(inputs, manifest["mesh"]["file"])]
    return {"exit_code": hho.cli.main(argv)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(args.inputs, "inputs.json")) as fh:
        manifest = json.load(fh)
    if args.probe:
        result = {"environment": environment()}
    else:
        tracer = spans.install() if args.trace else None
        result = run_cli(manifest, args.inputs)
        if tracer is not None:
            result["trace"] = tracer.summary()
    result["t_ready"] = READY
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
