"""In-memory span tracer for the benchmark's traced run.

:meth:`Tracer.install` wraps the package's public functions in every ``mec``
module namespace that binds them, so a call from one layer into another gets
its own span; the package's source is not changed. A span is
``[name, start, end, parent, op]``. Spans stay in memory and are reduced to
per-layer metrics once, after the run. Self time is a span's duration minus
the durations of its child spans. No layer queues work, so there is no wait
time to report.

Every per-layer value is a mean per op over the traced ops, so counts repeat
exactly for a given seed when the traced ops cover whole passes of the pool.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# layer (module of the package) -> public functions that get spans
TRACED = {
    "distributions": ("make_distribution", "shannon_entropy"),
    "majorization": ("glb", "glb_many"),
    "coupling": ("min_entropy_coupling_sparse", "min_entropy_coupling_dense", "is_valid_coupling"),
    "multiway": ("min_entropy_joint_k", "axis_marginals"),
    "oracle": ("brute_force_min_entropy", "enumerate_vertices"),
    "reports": ("metric_estimate", "bounds_report"),
    "cli": ("run",),
}
ENGINES = ("coupling.min_entropy_coupling_sparse", "coupling.min_entropy_coupling_dense")
OP = "op"  # root span of one op; its self time is the benchmark's own work
REVALIDATE = "coupling.SparseCoupling"


def _timed_metrics() -> list[tuple[str, str, str]]:
    out = []
    for layer, names in TRACED.items():
        for fn in names:
            span = f"{layer}.{fn}"
            out.append((f"{span}.calls", "count/op", "lower"))
            out.append((f"{span}.busy_s", "s/op", "lower"))
            # cli.run's self time is reported once, as cli.self_s
            if span != "cli.run":
                out.append((f"{span}.self_s", "s/op", "lower"))
    return out


# (name, unit, better) for every per-layer metric, in output order
PER_LAYER = _timed_metrics() + [
    (f"{REVALIDATE}.busy_s", "s/op", "lower"),
    ("coupling.cells", "count/op", "lower"),
    ("coupling.support_ratio", "ratio", "lower"),
    ("coupling.is_valid_coupling.failed", "count/op", "lower"),
    ("distributions.make_distribution.components", "count/op", "lower"),
    ("multiway.cells", "count/op", "lower"),
    ("oracle.trees", "count/op", "lower"),
    ("oracle.vertices", "count/op", "lower"),
    ("oracle.vertex_yield", "ratio", "higher"),
    ("oracle.warm_s", "s", "lower"),
    ("cli.self_s", "s/op", "lower"),
    ("cli.bytes_in", "B/op", "lower"),
    ("cli.bytes_out", "B/op", "lower"),
    ("cli.failed", "count/op", "lower"),
    ("errors.mec_raised", "count/op", "lower"),
    ("errors.foreign_raised", "count/op", "lower"),
    ("bench.self_s", "s/op", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _length(d) -> int:
    return len(d.masses) if hasattr(d, "masses") else len(d)


class Tracer:
    """Records spans and counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.support_ratios: list[float] = []
        self.produced: list = []  # couplings the engines returned in this op
        self._stack: list[int] = []
        self._op: int | None = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return self.open(OP)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args: tuple, result) -> None:
        if name in ENGINES:
            cells = len(result.entries)
            self.counts["coupling.cells"] += cells
            self.support_ratios.append(cells / (2 * max(result.n_rows, result.n_cols)))
            self.produced.append(result)
        elif name == "coupling.is_valid_coupling":
            self.counts["coupling.is_valid_coupling.failed"] += not result[0]
        elif name == "distributions.make_distribution":
            self.counts["distributions.make_distribution.components"] += len(args[0])
        elif name == "multiway.min_entropy_joint_k":
            self.counts["multiway.cells"] += len(result.entries)
        elif name == "oracle.enumerate_vertices":
            n, m = _length(args[0]), _length(args[1])
            # spanning trees of K_{n,m}: one vertex solve is attempted per tree
            self.counts["oracle.trees"] += n ** (m - 1) * m ** (n - 1)
            self.counts["oracle.vertices"] += len(result)

    def install(self, mec) -> None:
        """Replace each traced function by a wrapper wherever ``mec`` binds it."""
        modules = [mec] + [getattr(mec, layer) for layer in TRACED]
        for layer, names in TRACED.items():
            for fn_name in names:
                original = getattr(getattr(mec, layer), fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def revalidate(self, mec) -> None:
        """Rebuild every coupling the engines returned in this op through the
        public constructor, as an outside measure of output construction.

        Runs after the op's clock has stopped; the spans have no parent.
        """
        for m in self.produced:
            idx = self.open(REVALIDATE)
            mec.SparseCoupling(m.n_rows, m.n_cols, m.entries)
            self.close(idx)
        self.produced.clear()

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op means of every span and count (outcome counts excepted)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - child[idx]
            calls[name] += 1
        out: dict[str, float] = {}
        for layer, names in TRACED.items():
            for fn in names:
                span = f"{layer}.{fn}"
                out[f"{span}.calls"] = calls[span] / n_ops
                out[f"{span}.busy_s"] = busy[span] / n_ops
                out[f"{span}.self_s"] = own[span] / n_ops
        out["cli.self_s"] = out.pop("cli.run.self_s")
        out[f"{REVALIDATE}.busy_s"] = busy[REVALIDATE] / n_ops
        out["bench.self_s"] = own[OP] / n_ops
        for name, value in self.counts.items():
            out[name] = value / n_ops
        trees = self.counts["oracle.trees"]
        out["oracle.vertex_yield"] = self.counts["oracle.vertices"] / trees if trees else 0.0
        ratios = self.support_ratios
        out["coupling.support_ratio"] = sum(ratios) / len(ratios) if ratios else 0.0
        return out
