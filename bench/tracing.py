"""Spans around rkdglab's public functions, patched in from outside the package.

Tracer.install() replaces each traced function or method with a wrapper
that records a span (name, start, end, parent) while the tracer is
enabled.  Functions that other rkdglab modules imported by name are
replaced in every module that holds them, so internal calls are traced
too.  Spans stay in memory; the worker writes them out when it ends.

Self time of a span is its duration minus the durations of its direct
children.  Spans nest exactly because the traced code is single-threaded.
"""
import sys
import time
from collections import defaultdict

# (span name, module, attribute); "Class.method" patches the class attribute
SPANS = (
    ("mesh.build", "rkdglab.mesh", "build_mesh_1d"),
    ("mesh.build", "rkdglab.mesh", "build_mesh_2d"),
    ("operators.assemble", "rkdglab.operators", "assemble_upwind"),
    ("operators.assemble", "rkdglab.operators", "reduce_operator"),
    ("operators.apply", "rkdglab.operators", "BlockOperator.apply_array"),
    ("operators.project", "rkdglab.operators", "project"),
    ("operators.project", "rkdglab.operators", "quadrature_grid"),
    ("operators.project", "rkdglab.operators", "eval_grid"),
    ("operators.dense", "rkdglab.operators", "dense_from_matvec"),
    ("operators.norm", "rkdglab.operators", "operator_norm"),
    ("schemes.evolve", "rkdglab.schemes", "evolve"),
    ("schemes.step", "rkdglab.schemes", "step"),
    ("schemes.evolution_map", "rkdglab.schemes", "EvolutionMap.apply_array"),
    ("schemes.evolution_map", "rkdglab.schemes", "EvolutionMap.rmatvec"),
    ("schemes.evolution_map", "rkdglab.schemes", "EvolutionMap.norm_symbols"),
    ("stability.delta", "rkdglab.stability", "delta"),
    ("stability.fourier_cfl", "rkdglab.stability", "fourier_cfl"),
    ("experiments.l2_error", "rkdglab.experiments", "l2_error"),
    ("experiments.accuracy_table", "rkdglab.experiments", "accuracy_table"),
    ("props.run_all", "rkdglab.props", "run_all"),
    ("cli.run", "rkdglab.cli", "run"),
)

# products the power iteration forms; counted, outermost call only, inside
# a power-iteration span
MATVECS = (
    ("rkdglab.operators", "BlockOperator.matvec"),
    ("rkdglab.operators", "BlockOperator.rmatvec"),
    ("rkdglab.schemes", "EvolutionMap.matvec"),
    ("rkdglab.schemes", "EvolutionMap.rmatvec"),
)

NORM_PATHS = ("symbol", "dense_svd", "power_iteration")

#: per-layer metric name -> unit, in report order
METRICS = {}
for _layer in ("mesh.build", "operators.assemble", "operators.apply", "operators.project",
               *(f"operators.norm.{p}" for p in NORM_PATHS), "operators.dense",
               "schemes.evolve", "schemes.step", "schemes.evolution_map", "stability.delta",
               "stability.fourier_cfl", "experiments.l2_error", "experiments.accuracy_table",
               "props.run_all", "cli.run"):
    # these run once per CLI job, so only their self time is reported
    if _layer not in ("experiments.accuracy_table", "props.run_all", "cli.run"):
        METRICS[f"{_layer}.calls"] = "count"
    METRICS[f"{_layer}.self_s"] = "s"
METRICS.update({
    "operators.apply.bytes_computed": "bytes",
    "operators.apply.batch_cols": "cols",
    "operators.norm.power_iteration.matvecs": "count",
    "operators.norm.power_iteration.failed": "count",
    "schemes.blowups": "count",
    "cli.rows": "count",
    "trace.overhead_s": "s",
})

# span fields
NAME, START, END, PARENT, ERROR, BYTES, COLS = range(7)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []
        self.matvecs = 0
        self._stack = []
        self._power_depth = 0
        self._matvec_depth = 0
        self._dispatched = set()

    # -- recording --------------------------------------------------------

    def _open(self, name):
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                None, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span, exc=None):
        span[END] = time.perf_counter()
        if exc is not None:
            span[ERROR] = type(exc).__name__
        self._stack.pop()

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            self._close(span)
            if after is not None:
                after(span, *args, out)
            return out
        return traced

    @staticmethod
    def _apply_sizes(span, op, c, out):
        # computed from array sizes: operand, result and blocks, each once
        span[BYTES] = c.nbytes + out.nbytes + sum(b.nbytes for b in op.blocks.values())
        span[COLS] = c.shape[-1] if c.ndim > op.space.dim + 1 else 1

    def _wrap_norm(self, fn):
        """operator_norm span named after the path taken.

        "auto" either evaluates the Fourier symbols itself (named
        symbol) or dispatches to a nested dense_svd / power_iteration
        call (named auto, a dispatcher).
        """
        def traced(op, method="auto", *args, **kwargs):
            if not self.enabled:
                return fn(op, method, *args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            if parent >= 0 and self.spans[parent][NAME] == "operators.norm.auto":
                self._dispatched.add(parent)
            span = self._open(f"operators.norm.{method}")
            index = self._stack[-1]
            power = method == "power_iteration"
            self._power_depth += power
            try:
                out = fn(op, method, *args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            else:
                self._close(span)
            finally:
                self._power_depth -= power
                if method == "auto" and index not in self._dispatched:
                    span[NAME] = "operators.norm.symbol"
            return out
        return traced

    def _wrap_matvec(self, fn):
        def counted(*args, **kwargs):
            if not (self.enabled and self._power_depth):
                return fn(*args, **kwargs)
            self.matvecs += self._matvec_depth == 0
            self._matvec_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._matvec_depth -= 1
        return counted

    # -- installation -----------------------------------------------------

    def install(self):
        """Patch every traced callable; rkdglab and its submodules must be imported."""
        replaced = {}
        for module, attr in MATVECS:
            self._patch(module, attr, self._wrap_matvec, replaced)
        for name, module, attr in SPANS:
            if attr == "BlockOperator.apply_array":
                make = lambda fn: self._wrap("operators.apply", fn, self._apply_sizes)
            elif attr == "operator_norm":
                make = self._wrap_norm
            else:
                make = lambda fn, name=name: self._wrap(name, fn)
            self._patch(module, attr, make, replaced)
        # rebind names imported into other modules (``from .x import f``)
        modules = [m for n, m in sys.modules.items() if n == "rkdglab" or n.startswith("rkdglab.")]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if callable(value) and id(value) in replaced:
                    setattr(mod, key, replaced[id(value)])

    @staticmethod
    def _patch(module, attr, make, replaced):
        owner = sys.modules[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        orig = owner.__dict__[attr]
        # a method patched twice (a span and a matvec count) wraps the first wrapper
        wrapped = make(orig)
        setattr(owner, attr, wrapped)
        replaced[id(orig)] = wrapped

    # -- per pass ---------------------------------------------------------

    def take(self):
        """Spans and matvec count recorded since the last take()."""
        spans, matvecs = self.spans, self.matvecs
        self.spans, self.matvecs = [], 0
        self._dispatched = set()
        return spans, matvecs


def layer_metrics(spans, matvecs):
    """Per-layer metrics of one traced pass (the callers add cli.rows and trace.overhead_s)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    nbytes = cols = 0
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += (s[END] - s[START]) - child[i]
        if s[ERROR]:
            errors[(s[NAME], s[ERROR])] += 1
        nbytes += s[BYTES]
        cols += s[COLS]
    out = {}
    for metric in METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[layer]
        elif kind == "self_s":
            out[metric] = self_s[layer]
    n_apply = calls["operators.apply"]
    out["operators.apply.bytes_computed"] = nbytes
    out["operators.apply.batch_cols"] = cols / n_apply if n_apply else 0.0
    out["operators.norm.power_iteration.matvecs"] = matvecs
    out["operators.norm.power_iteration.failed"] = errors[
        ("operators.norm.power_iteration", "PowerIterationError")]
    out["schemes.blowups"] = errors[("schemes.evolve", "BlowUpError")]
    return out


def write_spans(path, passes):
    """CSV of every traced pass's spans: pass, id, parent, name, start_s, end_s, error."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("pass,id,parent,name,start_s,end_s,error\n")
        for p, spans in passes:
            for i, s in enumerate(spans):
                fh.write(f"{p},{i},{s[PARENT]},{s[NAME]},{s[START]:.9f},{s[END]:.9f},"
                         f"{s[ERROR] or ''}\n")
