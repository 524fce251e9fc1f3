"""The benchmark's workloads: what each one runs and why it was chosen.

This module holds data only and imports nothing from the solver, so
`run.py` can read it without loading numpy or scipy.

Both workloads run the `hho` command line in a fresh child process. The
seed never changes a converge config: those runs are checked against
reference errors of the one fixed manufactured problem.
"""

WORKLOADS = {
    "converge-p3-kink": {
        "kind": "converge",
        "why": "high degree with a divergence-form load: per-cell dense "
               "kernels (HHOSpace, Smoother) dominate",
        "config": {
            "case": "kink-aligned",
            "degree": 3,
            "levels": [8, 16, 32],
            "method": "smoothed",
            "averaging": "scott-zhang",
        },
        # the acceptance suite checks only the energy order on this case
        # (criterion 5), together with the bounded quasi-optimality ratio
        "eoc": {"eoc_H1": [4.0, 0.15]},
        "ratio_spread": 1.5,
    },
    "verify-mesh": {
        "kind": "verify",
        "why": "many tiny problems plus a seeded jittered mesh: Python "
               "per-call overhead, dense eigh and check_matching dominate",
        "config": {},
        "mesh_n": 32,
        "jitter": 0.15,  # share of the grid spacing, per coordinate
        "checks": 142,   # default suite (141) plus the external mesh check
    },
}
