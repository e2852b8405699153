"""Regenerate bench/reference/<workload>.json from the rkdglab in ./src.

Usage, from the repository root, at the commit whose outputs are the
reference:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py [workload ...]

Every job of every mesh seed in the pool is run once and its parsed rows
stored.  A growth point that raises PowerIterationError is stored as a
known failure together with its value from a dense SVD of the same
evolution map, so a later fix can still be checked.
"""
import json
import pathlib
import sys

import workloads
from worker import parse_job, run_job

REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"


def dense_delta(rl, job):
    """Growth metric of a delta job by dense SVD, above the usual size cap."""
    from rkdglab.stability import DELTA_FLOOR, NORM_RESOLUTION, evolution_map

    mesh = rl.build_mesh_1d(job["n"], workloads.PERTURB, seed=job["mesh_seed"])
    emap = evolution_map(rl.taylor_scheme(job["r"], job["variant"]), mesh, job["k"], job["cfl"])
    nrm = rl.operator_norm(emap, method="dense_svd", dense_cap=emap.n_dofs)
    excess = nrm * nrm - 1.0
    return max(0.0 if abs(excess) < NORM_RESOLUTION else excess, DELTA_FLOOR)


def make(rl, workload):
    jobs = {}
    for seed in range(workloads.MESH_SEED_POOL):
        for job in workloads.jobs(workload, seed):
            if job["key"] in jobs:
                continue
            entry = parse_job(job, run_job(rl, job))
            if entry.get("error") == "PowerIterationError":
                entry["dense_delta"] = dense_delta(rl, job)
            jobs[job["key"]] = entry
            print(f"{workload}: {job['key']}: {entry.get('error', 'ok')}", file=sys.stderr,
                  flush=True)
    return {"workload": workload, "rkdglab_version": rl.__version__,
            "mesh_seed_pool": workloads.MESH_SEED_POOL, "jobs": jobs}


def main(names):
    import rkdglab as rl
    import rkdglab.cli  # noqa: F401  (run_job drives rl.cli)

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or workloads.NAMES:
        ref = make(rl, workload)
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="ascii")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
