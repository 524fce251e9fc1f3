"""Seeded inputs for one benchmark run.

    python3 perfbench/inputs.py --workload NAME --seed N --out DIR

writes the workload's CLI config (`config.json`), for verify-mesh the
jittered mesh file (`mesh.txt`, written by `hho.mesh.write_mesh_file`), and
a manifest `inputs.json` recording everything derived from the seed. The
same seed gives the same files.
"""

import argparse
import hashlib
import json
import os

import numpy as np

from hho.mesh import SimplicialMesh, build_unit_square, write_mesh_file

from workloads import WORKLOADS


def jittered_mesh(n, jitter, rng):
    """Uniform n x n mesh with interior vertices moved by up to jitter/n."""
    mesh = build_unit_square(n)
    verts = mesh.vertices.copy()
    interior = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    verts[interior] += rng.uniform(-jitter, jitter, (interior.sum(), 2)) / n
    a, b, c = (verts[mesh.cells[:, i]] for i in range(3))
    area = (b - a)[:, 0] * (c - a)[:, 1] - (b - a)[:, 1] * (c - a)[:, 0]
    if np.any(area <= 0.0):  # the grid's cells are counter-clockwise
        raise ValueError(f"jitter {jitter} folds a cell")
    return SimplicialMesh(verts, mesh.cells)


def write_inputs(name, seed, out):
    spec = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    os.makedirs(out, exist_ok=True)
    manifest = {"workload": name, "seed": seed, "kind": spec["kind"]}
    config = dict(spec["config"])
    manifest["config"] = config
    if spec["kind"] == "verify":
        mesh = jittered_mesh(spec["mesh_n"], spec["jitter"], rng)
        path = os.path.join(out, "mesh.txt")
        write_mesh_file(mesh, path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        manifest["mesh"] = {"file": "mesh.txt", "n": spec["mesh_n"],
                            "jitter": spec["jitter"], "sha256": digest}
    with open(os.path.join(out, "config.json"), "w") as fh:
        json.dump(config, fh, indent=2)
    with open(os.path.join(out, "inputs.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
