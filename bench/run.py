"""rkdglab benchmark: times CLI and library workloads and checks every output row.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

One run of a workload:
  1. setup_s: SETUP_SAMPLES cold starts of a fresh interpreter that imports
     rkdglab from ./src and resolves every job's config (after one untimed
     start that warms the .pyc files); the median is reported, scaled to
     the reference machine speed as wall_s is below.
  2. One fresh worker process (bench/worker.py), with BLAS threads pinned
     to 1 and RKDGLAB_WORKERS unset, runs passes of the workload's jobs
     for --seconds, timing a fixed numpy kernel (calibrate) between jobs.
     wall_s is the median pass wall time scaled to the reference machine
     speed: each job's time is divided by the calibrate() time measured
     just before and after it and multiplied by CAL_REF_S.  On a shared
     machine whose speed drifts by up to 30 % within minutes this cuts the
     run-to-run spread by a third to two thirds.  setup_s is scaled the
     same way.  peak_rss_mb is the worker's peak resident memory after its
     first pass.
  3. Every output row of every pass is checked against the stored
     reference in bench/reference/.  An op (one output row or growth point)
     fails when its job raises, its flagged/nan state differs from the
     reference, or a value falls outside the tolerance below.

With --trace 1 the worker runs half the time untraced and half traced and
the run reports the per-layer metrics of bench/tracing.py instead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A record with the environment, seed, pass times and
failed ops is written to .bench_out/.
"""
import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

import workloads
from tracing import METRICS

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
#: calibrate() time that defines the reference machine speed: its typical
#: value on the 2-core Xeon the benchmark was written on (numpy 2.4, one
#: BLAS thread)
CAL_REF_S = 0.04
DEADLINE_S = 170.0

# Tolerances.  The reference is the output of the commit that added the
# benchmark; an evaluation in a mathematically equivalent order (e.g.
# Fourier-space evolution, which agrees with stepping to 1.5e-12 per
# coefficient) must pass, a wrong answer must not.
RTOL = 1e-6
#: per-coefficient drift allowed; in the orthonormal basis an L2 error can
#: move by at most COEFF_TOL * sqrt(dofs)
COEFF_TOL = 1.5e-12
#: fourier_cfl bisects to 5e-4, so its value is only defined to that width
CFL_TOL = 5e-4
#: growth metric from symbols or dense SVD: 1e-13 is its snapping threshold
DELTA_ATOL = 1e-12

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops_passed_frac": "ratio"}


class BenchError(RuntimeError):
    pass


def pinned_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("RKDGLAB_WORKERS", "PYTHONPATH", "PYTHONHOME", "PYTHONDONTWRITEBYTECODE")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker(args, env, timeout):
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def cold_starts(workload, seed, env, deadline):
    """Cold-start times scaled to the reference machine speed, and the raw times.

    Each child reports its calibrate() time; the time it spent calibrating
    is taken off its wall time, the rest is scaled by CAL_REF_S / cal.
    """
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    worker(args, env, deadline - time.monotonic())      # warms the .pyc files
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        out = worker(args, env, deadline - time.monotonic())
        elapsed = time.perf_counter() - t0
        report = json.loads(out.splitlines()[-1])
        raw.append(elapsed - report["spent_s"])
        scaled.append(raw[-1] * CAL_REF_S / report["cal_s"])
    return scaled, raw


# ---------------------------------------------------------------------------
# reference check
# ---------------------------------------------------------------------------

def _close(x, ref, atol):
    if x is None or ref is None:
        return x is None and ref is None
    return abs(x - ref) <= RTOL * abs(ref) + atol


def _l2_allowance(row):
    """Relative slack of an L2 error row (RTOL plus the coefficient drift)."""
    return RTOL + COEFF_TOL * math.sqrt(row["dofs"]) / abs(row["l2_error"])


def _row_ok(op_id, ref, got, prev, delta_atol):
    if "l2_error" in ref:
        if got.get("dofs") != ref["dofs"]:
            return False
        if not _close(got["l2_error"], ref["l2_error"], COEFF_TOL * math.sqrt(ref["dofs"])):
            return False
        if ref["eoc"] is None or got["eoc"] is None:
            return ref["eoc"] is None and got["eoc"] is None
        # the EOC of two rows may move by the two error allowances over log(N ratio)
        n, n_prev = int(op_id.rsplit("=", 1)[1]), int(prev[0].rsplit("=", 1)[1])
        tol = (_l2_allowance(ref) + _l2_allowance(prev[1])) / math.log(n / n_prev)
        return abs(got["eoc"] - ref["eoc"]) <= tol
    if "delta" in ref:
        return _close(got.get("delta"), ref["delta"], delta_atol)
    if "cfl" in ref:
        return got.get("cfl") is not None and abs(got["cfl"] - ref["cfl"]) <= CFL_TOL
    return got.get("pass") == ref["pass"]


def check_job(job, ref, got):
    """Yield (op_id, status) per op: "ok", "failed", or "known" (fails as the reference did)."""
    delta_atol = job.get("atol", DELTA_ATOL)
    if "error" in ref:
        if "error" in got:
            yield "point", "known" if got["error"] == ref["error"] else "failed"
        else:
            ok = _close(got["ops"]["point"]["delta"], ref["dense_delta"], delta_atol)
            yield "point", "ok" if ok else "failed"
        return
    if "error" in got:
        for op_id in ref["ops"]:
            yield op_id, "failed"
        return
    last = {}
    for op_id, row in ref["ops"].items():
        group = op_id.rsplit(",N=", 1)[0]
        out = got["ops"].get(op_id)
        ok = out is not None and _row_ok(op_id, row, out, last.get(group), delta_atol)
        last[group] = (op_id, row)
        yield op_id, "ok" if ok else "failed"
    for op_id in got["ops"].keys() - ref["ops"].keys():
        yield op_id, "failed"       # a row the reference does not have


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    ref_path = BENCH / "reference" / f"{workload}.json"
    ref_jobs = json.loads(ref_path.read_text(encoding="ascii"))["jobs"]
    job_list = workloads.jobs(workload, seed)
    env = pinned_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"

    setup, raw_setup = cold_starts(workload, seed, env, deadline)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        args += ["--spans", str(OUT / f"spans-{tag}.csv")]
    result = json.loads(worker(args, env, deadline - time.monotonic()).splitlines()[-1])

    attempted = failed = 0
    failed_ops, known_ops = set(), set()
    for p in result["passes"]:
        for job in job_list:
            for op_id, status in check_job(job, ref_jobs[job["key"]], p["jobs"][job["key"]]):
                attempted += 1
                if status != "ok":
                    failed += 1
                    (known_ops if status == "known" else failed_ops).add(f"{job['key']}: {op_id}")

    untraced = [p for p in result["passes"] if not p["traced"]]
    raw_wall = statistics.median(p["wall_s"] for p in untraced)
    if trace:
        traced = [p for p in result["passes"] if p["traced"]]
        metrics = dict(result["layers"])
        # both halves scaled to the reference speed, as wall_s is
        metrics["trace.overhead_s"] = CAL_REF_S * (
            statistics.median(p["cal_wall"] for p in traced)
            - statistics.median(p["cal_wall"] for p in untraced))
    else:
        metrics = {
            "wall_s": statistics.median(p["cal_wall"] for p in untraced) * CAL_REF_S,
            "setup_s": statistics.median(setup),
            # the high-water mark after the first pass: later passes repeat
            # the same work but can creep up by a few MB
            "peak_rss_mb": result["passes"][0]["rss_mb"],
            "ops_passed_frac": 1.0 - failed / attempted,
        }
    record = {
        "workload": workload, "seed": seed, "mesh_seed": workloads.mesh_seed(seed),
        "seconds": seconds, "trace": trace, "env": result["env"],
        "raw_wall_s": raw_wall, "cal_s": result["cal_s"],
        "pass_cal_wall": [p["cal_wall"] for p in result["passes"]],
        "pass_wall_s": [p["wall_s"] for p in result["passes"]],
        "pass_traced": [p["traced"] for p in result["passes"]],
        "setup_samples_s": setup, "raw_setup_samples_s": raw_setup,
        "attempted": attempted, "failed": failed,
        "known_failures": sorted(known_ops), "unexpected_failures": sorted(failed_ops),
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return record


def report(record):
    env = record["env"]
    print(f"# workload {record['workload']}  seed {record['seed']} (mesh seed "
          f"{record['mesh_seed']})  passes {len(record['pass_wall_s'])}  trace {record['trace']}")
    print(f"# env: {env['cpu']}, nproc {env['nproc']}, Python {env['python']}, numpy "
          f"{env['numpy']}, {env['blas']}, threads {env['threads']}, "
          f"RKDGLAB_WORKERS={env['RKDGLAB_WORKERS']}")
    for op in record["known_failures"]:
        print(f"# known failure (as at the reference): {op}")
    for op in record["unexpected_failures"]:
        print(f"# FAILED: {op}")
    print(f"# ops: {record['failed']} failed of {record['attempted']} attempted")
    units = METRICS if record["trace"] else END_TO_END
    for name, value in record["metrics"].items():
        print(f"{record['workload']}  {name} = {value:.6g} {units[name]}")


def main():
    parser = argparse.ArgumentParser(description="rkdglab benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rkdglab" / "__init__.py").is_file():
        print(f"error: no rkdglab sources at {ROOT / 'src' / 'rkdglab'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(record)
        units = METRICS if args.trace else END_TO_END
        prefix = f"{name}." if args.workload == "all" else ""
        summary["correct"] &= not record["unexpected_failures"]
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        summary["metrics"].update({f"{prefix}{k}": {"value": v, "unit": units[k]}
                                   for k, v in record["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
