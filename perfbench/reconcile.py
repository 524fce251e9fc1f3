"""Traced reconciliation against the baseline table in ROADMAP.md.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/reconcile.py P N [--no-matrix]

Solves smooth-sine with the smoothed method (mean averaging) at degree P on
the N x N unit-square mesh, the steps `run_convergence` takes for one level,
then materialises `Smoother.matrix`, all with the tracer installed. Prints
one JSON object: inclusive seconds per stage (the table's columns), self
seconds per layer, and peak RSS before and after the matrix. Run each point
in its own process, because peak RSS only grows within a process.
`--no-matrix` skips the matrix, whose peak RSS grows fastest with P and N.
"""

import json
import resource
import sys
import time

import hho.cli  # noqa: F401  (imports every hho module before tracing)

import spans

STAGES = {
    "space": ["hho.local_ops:HHOSpace.__init__"],
    "smoother": ["hho.smoothing:Smoother.__init__"],
    "assemble": ["hho.system:assemble"],
    "rhs": ["hho.system:rhs_smoothed"],
    "factor+solve": ["hho.system:solve"],
    "errors": spans.LAYERS["analysis.errors_s"],
    "Smoother.matrix": ["hho.smoothing:Smoother.matrix"],
}


def main():
    p, n = int(sys.argv[1]), int(sys.argv[2])
    tracer = spans.install()
    from hho import analysis
    from hho.local_ops import HHOSpace
    from hho.mesh import build_unit_square
    from hho.smoothing import Smoother
    from hho.system import assemble, rhs_smoothed, solve

    case = analysis.smooth_sine_case()
    start = time.perf_counter()
    space = HHOSpace(build_unit_square(n), p)
    system = assemble(space)
    smoother = Smoother(space)
    field = solve(system, rhs_smoothed(space, smoother, case.load))
    analysis.error_h1_broken(space, case.grad_u, field)
    analysis.best_error_h1(space, case.u, case.grad_u)
    analysis.error_l2(space, case.u, field)
    analysis.supercloseness(space, case.u, field)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "--no-matrix" not in sys.argv:
        smoother.matrix
    total = time.perf_counter() - start
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    roots = {}
    for name, t0, t1, parent in tracer.spans:
        if parent < 0:
            roots[name] = roots.get(name, 0.0) + t1 - t0
    summary = tracer.summary()
    print(json.dumps({
        "p": p, "n": n, "dofs": space.num_dofs,
        "stages_s": {stage: sum(roots.get(k, 0.0) for k in names)
                     for stage, names in STAGES.items()},
        "total_s": total,
        "layers_s": summary["layers"],
        "counts": summary["counts"],
        "peak_rss_mb": {"before_matrix": rss_before, "after_matrix": rss_after},
    }, indent=1))


if __name__ == "__main__":
    main()
