"""The benchmark's workloads: which CLI jobs and library growth points one pass runs.

A pass is one execution of a workload's job list.  Jobs are plain data so
that run.py (which never imports rkdglab), the worker and the
reference generator all agree on them.

The workload seed selects the perturbed meshes.  References are stored
for MESH_SEED_POOL mesh seeds, so the mesh seed is the workload seed
modulo that pool: the same seed always gives the same inputs, and a
second seed gives a different mesh that still has a stored reference.
"""

MESH_SEED_POOL = 16
PERTURB = 0.15

NAMES = ("accuracy_1d_uniform", "accuracy_1d_perturbed", "accuracy_2d", "stability")

ACCURACY_1D = ["accuracy", "--dim", "1", "--r", "2,3,4", "--variant", "both", "--N", "40,80,160"]


def mesh_seed(seed):
    return seed % MESH_SEED_POOL


def _cli(*argv):
    return {"kind": "cli", "argv": list(argv), "key": " ".join(argv)}


def _delta(n, k, r, variant, cfl, mseed, atol, timed=True):
    """Library growth point on a perturbed 1D mesh (the CLI ignores perturb here).

    atol is the growth metric's absolute tolerance in the reference check.
    An untimed job runs in every pass and is checked, but its time is left
    out of wall_s.
    """
    key = f"delta N={n} k={k} r={r} {variant} cfl={cfl} perturb={PERTURB} mesh_seed={mseed}"
    return {"kind": "delta", "n": n, "k": k, "r": r, "variant": variant, "cfl": cfl,
            "mesh_seed": mseed, "atol": atol, "timed": timed, "key": key}


def jobs(workload, seed):
    """Job list of one pass of a workload at a workload seed."""
    ms = mesh_seed(seed)
    # uniform 1D tables: dispatch-bound stepping with shared blocks, the path
    # exact Fourier-space evolution would replace
    if workload == "accuracy_1d_uniform":
        return [
            _cli(*ACCURACY_1D),
            _cli("regularity", "--r", "3", "--variant", "both", "--N", "80,160", "--T", "1"),
        ]
    # same table on perturbed meshes, (N, m, m) block stacks: bypasses every
    # uniform-only path; target of a fused one-step operator
    if workload == "accuracy_1d_perturbed":
        return [_cli(*ACCURACY_1D, "--perturb", str(PERTURB), "--seed", str(ms))]
    # up to N=40 in 2D, the only workload with compute-bound block applies
    if workload == "accuracy_2d":
        return [_cli("accuracy", "--dim", "2", "--r", "3", "--variant", "both", "--N", "10,20,40")]
    # no time stepping: symbol, eigvals, dense SVD and power-iteration paths
    if workload == "stability":
        return [
            _cli("cfl", "--variant", "both", "--r", "2,3"),
            _cli("stability", "--r", "3", "--k", "2", "--variant", "both"),
            _cli("stability", "--r", "3", "--k", "2", "--variant", "both", "--dim", "2"),
            _cli("prop-tests"),
            # dense SVD path (dofs under the 4096 cap)
            _delta(256, 2, 3, "standard", 0.1, ms, atol=1e-12),
            _delta(200, 3, 4, "sdA", 0.1, ms, atol=1e-12),
            # power iteration (atol: it stops at a 1e-10 relative step) that
            # converges; its iteration count, and so its cost, depends on the
            # mesh, so this point keeps mesh seed 0 on every seed
            _delta(1100, 3, 2, "standard", 0.4, 0, atol=1e-9),
            # power iteration that raises PowerIterationError after 10,000
            # iterations on every pooled mesh: a known failure, kept in and
            # counted as failed.  A failed op counts as a failure, not as
            # latency, and its 10 s of noisy time would swamp wall_s.
            _delta(1400, 2, 3, "standard", 0.05, ms, atol=1e-9, timed=False),
        ]
    raise KeyError(workload)
