"""Layer spans for the traced run, recorded from outside the solver.

`install()` wraps the public names that hho's modules import from each
other (module functions are rebound in every hho module that holds them;
methods and properties are replaced on their class; `dla.eigh` in
`hho.verify` and `json.dump` in `hho.cli` go through a module proxy). Each
call records a span (name, start, end, parent) in memory. A span's self time
is its duration minus the time its direct children cover; summing self time
by layer gives the per-layer metrics. No file under `src/` is changed.
"""

import functools
import sys
import time
import types
import weakref
from collections import Counter, defaultdict

# layer metric -> traced names ("module:attr" or "module:Class.attr")
LAYERS = {
    "mesh.build_s": [
        "hho.mesh:SimplicialMesh.__init__", "hho.mesh:build_unit_square",
        "hho.mesh:build_lshape", "hho.mesh:refine_red",
    ],
    "mesh.read_s": ["hho.mesh:read_mesh_file"],
    "mesh.check_s": ["hho.mesh:check_matching", "hho.mesh:shape_parameter"],
    "polyquad.tabulate_s": [
        "hho.polyquad:cell_basis_values", "hho.polyquad:cell_basis_gradients",
        "hho.polyquad:cell_basis_laplacians", "hho.polyquad:face_basis_values",
    ],
    "polyquad.quadrature_s": [
        "hho.polyquad:quad_for_degree", "hho.polyquad:cell_quadrature",
        "hho.polyquad:face_quadrature",
    ],
    "local_ops.space_s": ["hho.local_ops:HHOSpace.__init__"],
    "local_ops.project_s": [
        "hho.local_ops:HHOSpace.reconstruct",
        "hho.local_ops:HHOSpace.elliptic_project",
        "hho.local_ops:HHOSpace.project_cell",
        "hho.local_ops:HHOSpace.project_face",
        "hho.local_ops:HHOSpace.interpolate",
    ],
    "smoothing.build_s": ["hho.smoothing:Smoother.__init__"],
    "smoothing.apply_s": [
        "hho.smoothing:Smoother.apply_vector",
        "hho.smoothing:Smoother.apply_transpose",
    ],
    "smoothing.matrix_s": ["hho.smoothing:Smoother.matrix"],
    "smoothing.checks_s": [
        "hho.smoothing:moment_residuals", "hho.smoothing:orthogonality_residual",
        "hho.smoothing:jump_matrix",
    ],
    "system.assemble_s": ["hho.system:assemble", "hho.local_ops:assemble_bilinear"],
    "system.rhs_s": ["hho.system:rhs_classical", "hho.system:rhs_smoothed"],
    "system.factor_s": ["scipy.sparse.linalg:splu"],
    "system.solve_s": [
        "hho.system:solve", "hho.system:solve_full", "hho.system:residual_inf",
    ],
    "analysis.errors_s": [
        "hho.analysis:error_h1_broken", "hho.analysis:error_l2",
        "hho.analysis:supercloseness", "hho.analysis:best_error_h1",
    ],
    "analysis.cases_s": [
        "hho.analysis:get_case", "hho.analysis:builtin_cases",
        "hho.analysis:poly_consistency_case",
    ],
    "verify.eigh_s": ["hho.verify:dla.eigh"],
    "verify.self_s": ["hho.verify:run_verification"],
    "cli.output_s": [
        "hho.analysis:ConvergenceReport.write_csv",
        "hho.analysis:ConvergenceReport.write_json",
        "hho.analysis:ConvergenceReport.write_gnuplot",
        "hho.cli:json.dump",
    ],
}

POLYQUAD_LAYERS = ("polyquad.tabulate_s", "polyquad.quadrature_s")

# counts that must repeat exactly from run to run
COUNTS = ("mesh.cells", "local_ops.dofs", "system.face_nnz", "system.lu_nnz",
          "smoothing.matrix_nnz", "polyquad.calls", "verify.checks")


class _ModuleProxy(types.ModuleType):
    """Stands in for a module, with some attributes replaced."""

    def __init__(self, module, **replaced):
        super().__init__(module.__name__)
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def self_times(self):
        """Self seconds per traced name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return dict(out)

    def summary(self):
        """Per-layer self seconds, per-name self seconds and exact counts."""
        by_name = self.self_times()
        layers = {
            layer: sum(by_name.get(n, 0.0) for n in names)
            for layer, names in LAYERS.items()
        }
        counts = {key: int(self.counts[key]) for key in COUNTS}
        polyquad = {n for layer in POLYQUAD_LAYERS for n in LAYERS[layer]}
        counts["polyquad.calls"] = sum(1 for s in self.spans if s[0] in polyquad)
        return {"layers": layers, "names": by_name, "counts": counts,
                "spans": len(self.spans)}


def _counters(tracer):
    counts = tracer.counts
    materialised = weakref.WeakSet()

    def matrix_nnz(args, result):
        if args[0] not in materialised:
            materialised.add(args[0])
            counts["smoothing.matrix_nnz"] += result.nnz

    return {
        "hho.mesh:SimplicialMesh.__init__":
            lambda a, r: counts.update({"mesh.cells": a[0].num_cells}),
        "hho.local_ops:HHOSpace.__init__":
            lambda a, r: counts.update({"local_ops.dofs": a[0].num_dofs}),
        "hho.system:assemble":
            lambda a, r: counts.update({"system.face_nnz": r.face_matrix.nnz}),
        "scipy.sparse.linalg:splu":
            lambda a, r: counts.update({"system.lu_nnz": r.L.nnz + r.U.nnz}),
        "hho.smoothing:Smoother.matrix": matrix_nnz,
        "hho.verify:run_verification":
            lambda a, r: counts.update({"verify.checks": len(r["checks"])}),
    }


def install():
    """Wrap every traced name in the already imported hho modules."""
    tracer = Tracer()
    counters = _counters(tracer)
    hho_modules = [m for n, m in sys.modules.items()
                   if n == "hho" or n.startswith("hho.")]
    proxied = defaultdict(dict)
    for names in LAYERS.values():
        for full in names:
            modname, attr = full.split(":")
            module = sys.modules[modname]
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
            count = counters.get(full)
            if isinstance(original, property):
                setattr(owner, leaf, property(tracer.wrap(full, original.fget, count)))
            elif isinstance(owner, type):
                setattr(owner, leaf, tracer.wrap(full, original, count))
            elif isinstance(owner, types.ModuleType) and owner is not module:
                proxied[(module, owner_name)][leaf] = tracer.wrap(full, original, count)
            else:
                wrapped = tracer.wrap(full, original, count)
                for mod in hho_modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
    for (module, name), replaced in proxied.items():
        setattr(module, name, _ModuleProxy(getattr(module, name), **replaced))
    return tracer
