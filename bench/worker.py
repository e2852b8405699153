"""Benchmark worker: runs one workload's passes in a fresh single-threaded process.

Started by run.py with the BLAS thread variables pinned and PYTHONPATH set
to the checkout's src/.  It runs passes of the workload until the next
one would end after --seconds, and prints one JSON object as its last
stdout line: pass wall times, parsed output rows per job, peak RSS, the
environment and, with --trace 1, per-layer metrics of the traced passes.

--setup-only stops after rkdglab is imported and every job's config is
resolved, then times calibrate() (twice; the second is reported); run.py
times such cold starts as setup_s.
"""
import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import workloads

#: share of each job's wall time spent timing calibrate() right after it
CAL_SHARE = 0.05


def _num(text):
    """CSV number cell -> float, or None for nan/empty (flagged or no value)."""
    if text in ("", "nan"):
        return None
    value = float(text)
    return value if math.isfinite(value) else None


def run_job(rl, job):
    """Execute one job; returns its raw output (CSV text or a growth value) or the exception."""
    try:
        if job["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = rl.cli.main(job["argv"])
            return {"status": status, "text": out.getvalue()}
        mesh = rl.build_mesh_1d(job["n"], workloads.PERTURB, seed=job["mesh_seed"])
        point = rl.delta(rl.taylor_scheme(job["r"], job["variant"]), mesh, job["k"], job["cfl"])
        return {"delta": point.delta}
    except Exception as exc:  # a failed op is a result to report, not a crash
        return {"error": type(exc).__name__, "message": str(exc)[:200]}


def parse_job(job, raw):
    """Raw job output -> {"ops": {op_id: row}} or {"error": ...}; ops keep output order."""
    if "error" in raw:
        return {"error": raw["error"], "message": raw["message"]}
    if job["kind"] == "delta":
        delta = raw["delta"]
        return {"ops": {"point": {"delta": delta if math.isfinite(delta) else None}}}
    command = job["argv"][0]
    ops = {}
    lines = [ln for ln in raw["text"].splitlines() if ln.strip() and not ln.startswith("#")]
    if command == "prop-tests":
        for line in lines:
            status, _, rest = line.partition("  ")
            ops[rest.partition(":")[0]] = {"pass": status == "PASS"}
        return {"ops": ops}
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if command in ("accuracy", "regularity"):
            op_id = f"{row['scheme']},{row['variant']},dim={row['dim']},N={row['N']}"
            ops[op_id] = {"dofs": int(row["dofs"]), "l2_error": _num(row["l2_error_raw"]),
                          "eoc": _num(row["eoc_raw"])}
        elif command == "stability":
            op_id = (f"{row['scheme']},{row['variant']},dim={row['dim']},N={row['N']},"
                     f"m={row['m']},cfl={row['cfl']}")
            ops[op_id] = {"delta": _num(row["delta_raw"])}
        elif command == "cfl":
            ops[f"{row['scheme']},{row['variant']}"] = {"cfl": _num(row["cfl_raw"])}
    return {"ops": ops}


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = (f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '')})")
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
        "RKDGLAB_WORKERS": os.environ.get("RKDGLAB_WORKERS"),
    }


def calibrate():
    """Seconds taken by a fixed numpy kernel shaped like rkdglab's block applies.

    Three equal parts: small dispatch-bound applies with a shared block
    (160 cells, 4 modes), per-cell block stacks (1400 cells, 3 modes) and
    large compute-bound 2D applies (40 x 40 cells, 6 modes).  Timed
    between jobs, it tracks how fast the shared machine runs at that moment.
    """
    rng = np.random.default_rng(0)
    kernels = []
    for blocks, shape, subscripts, reps in (((4, 4), (160, 4), "nm,im->in", 600),
                                             ((1400, 3, 3), (1400, 3), "inm,im->in", 300),
                                             ((6, 6), (40, 40, 6), "nm,xym->xyn", 120)):
        block = np.linalg.qr(rng.standard_normal(blocks))[0]   # orthogonal: values stay bounded
        kernels.append((block, rng.standard_normal(shape), subscripts, reps))
    t0 = time.perf_counter()
    for block, y, subscripts, reps in kernels:
        for _ in range(reps):
            y = np.einsum(subscripts, block, np.roll(y, 1, axis=0))
    return time.perf_counter() - t0


def run_passes(rl, job_list, seconds, tracer, passes, cal):
    """Append passes until the next one (at the median pass length) would end after seconds.

    After every job, calibrate() runs until it has taken CAL_SHARE of
    that job's time; cal collects the mean of each such batch.  A pass's
    wall_s sums its timed jobs' wall times; its cal_wall sums the same
    times, each divided by the mean of the batches just before and just
    after the job (in calibrate() units).
    """
    start = time.perf_counter()
    lengths = []
    while True:
        p0 = time.perf_counter()
        raws, wall, cal_wall = [], 0.0, 0.0
        for job in job_list:
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            raws.append(run_job(rl, job))
            t = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            batch = [calibrate()]
            while sum(batch) < CAL_SHARE * t:
                batch.append(calibrate())
            cal.append(statistics.mean(batch))
            if job.get("timed", True):
                wall += t
                cal_wall += t / statistics.mean(cal[-2:])
        lengths.append(time.perf_counter() - p0)
        parsed = {job["key"]: parse_job(job, raw) for job, raw in zip(job_list, raws)}
        rows = sum(len(parsed[job["key"]].get("ops", ())) for job in job_list
                   if job["kind"] == "cli")
        entry = {"traced": tracer is not None, "wall_s": wall, "cal_wall": cal_wall,
                 "jobs": parsed, "cli_rows": rows,
                 "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if tracer is not None:
            entry["spans"], entry["matvecs"] = tracer.take()
        passes.append(entry)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="CSV path for the traced passes' spans")
    args = parser.parse_args()

    import rkdglab as rl
    import rkdglab.cli

    job_list = workloads.jobs(args.workload, args.seed)
    if args.setup_only:
        real_run = rl.cli.run
        rl.cli.run = lambda values, *a, **kw: 0     # resolve each config, run no rows
        try:
            for job in job_list:
                if job["kind"] == "cli":
                    rl.cli.main(job["argv"])
                else:
                    rl.taylor_scheme(job["r"], job["variant"])
        finally:
            rl.cli.run = real_run
        t0 = time.perf_counter()
        calibrate()     # the first call in a fresh process pays one-off numpy set-up
        cal = calibrate()
        spent = time.perf_counter() - t0
        sys.stdout.write(json.dumps({"cal_s": cal, "spent_s": spent}) + "\n")
        return 0

    passes, cal = [], [calibrate()]
    if args.trace:
        import tracing

        # untraced passes first, with nothing patched, then the traced half
        run_passes(rl, job_list, args.seconds / 2, None, passes, cal)
        tracer = tracing.Tracer()
        tracer.install()
        run_passes(rl, job_list, args.seconds / 2, tracer, passes, cal)
    else:
        run_passes(rl, job_list, args.seconds, None, passes, cal)

    result = {
        "env": environment(),
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "matvecs")} for p in passes],
        "cal_s": cal,
    }
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = []
        for p in traced:
            metrics = tracing.layer_metrics(p["spans"], p["matvecs"])
            metrics["cli.rows"] = p["cli_rows"]
            per_pass.append(metrics)
        result["layers"] = {name: statistics.median(m[name] for m in per_pass)
                            for name in per_pass[0]}
        if args.spans:
            tracing.write_spans(args.spans, [(i, p["spans"]) for i, p in enumerate(traced)])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
