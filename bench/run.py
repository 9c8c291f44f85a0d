"""Benchmark of the mec package, one workload per process.

Run from the repository root:

    python3 bench/run.py --workload pair-1e5 --seed 1 --seconds 20 --trace 0

Workloads are ``pair-1e5``, ``kway-cli`` and ``certify-small`` (see
``bench/README.md`` for what each one measures and why). The process is a
closed loop with one caller: it imports the package from ``src/`` of this
checkout, sets up, draws a fixed pool of instances from the seed and runs
whole passes over the pool, in order, until ``--seconds`` have elapsed.
Every op's output is checked; an op that raises or fails its check is
counted, never dropped or retried.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics. With ``--trace 1`` the run spends half its time untraced and half
with spans on the package's public functions, and the last line carries the
per-layer metrics, including the tracing overhead between the two halves.
The lines before it are a human-readable report and one ``report`` JSON line
with the sample counts, failure diagnostics and environment.

Timings are reported scaled to a fixed reference loop timed next to them (see
:func:`reference_s`), so that the drift of a shared host's speed cancels out;
the report line also gives them as measured.

The garbage collector stays at the interpreter's defaults throughout: callers
pay its pauses, so the timed loop pays them too.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads
from spans import PER_LAYER, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
# what reference_s takes on an unloaded 2-vCPU Xeon host with Python 3.11;
# scaled timings are seconds on a host that runs the reference this fast
REF_NOMINAL_S = 0.010
# the reference runs before an op when this long has passed since it last
# ran, once for each such interval up to REF_MAX_REPS times, so that a long op
# is scaled by a steadier mean
REF_EVERY_S = 0.25
REF_MAX_REPS = 16
# reference runs at the start of a loop and on each side of a set-up
EDGE_REF_REPS = 4

# (name, unit) of every end-to-end metric, in output order
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("pass_frac", "ratio"),
    ("gap_bits", "bit"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _forget_mec() -> None:
    for name in [n for n in sys.modules if n == "mec" or n.startswith("mec.")]:
        del sys.modules[name]
    # the previous import's functions and caches sit in reference cycles;
    # free them now so that neither the next set-up nor peak memory counts them
    gc.collect()


def reference_s(reps: int = 1) -> float:
    """Mean seconds that ``reps`` runs of a fixed pure-Python loop take now.

    A shared host's speed drifts by a quarter over minutes, and the drift
    moves every op of a run alike. Dividing a timing by this loop's time
    next to it cancels the drift. The loop sorts, sums and indexes floats
    in a list and a dict, as the package does. Its working set is small, and
    it makes no objects that the garbage collector tracks beyond the list
    and the dict, so it never starts a collection of the package's objects:
    a change to the package cannot make it slower.
    """
    t0 = time.perf_counter()
    for _ in range(reps):
        rng = random.Random(5)
        xs = [rng.random() for _ in range(20_000)]
        xs.sort(reverse=True)
        total, index = 0.0, {}
        for i, x in enumerate(xs):
            total += x
            index[i * 7 + i % 7] = total
    return (time.perf_counter() - t0) / reps


def _reference_since(last: float) -> float:
    """Reference time, with one run per ``REF_EVERY_S`` since ``last``."""
    reps = int((time.perf_counter() - last) / REF_EVERY_S)
    return reference_s(max(1, min(REF_MAX_REPS, reps)))


def _scale(before: float, after: float) -> float:
    """Factor that turns a timing between two reference runs into seconds
    at the reference's nominal speed."""
    return 2 * REF_NOMINAL_S / (before + after)


def set_up(wl: workloads.Workload, pool: list, workdir: str):
    """Import the package afresh and warm it up.

    Returns the module, the seconds taken (scaled between reference runs
    before and after it, and as measured) and the seconds in the oracle.
    """
    _forget_mec()
    before = reference_s(EDGE_REF_REPS)
    t0 = time.perf_counter()
    mec = importlib.import_module("mec")
    importlib.import_module("mec.cli")  # the package does not import its CLI
    oracle_s = wl.warm_up(mec, pool, workdir)
    total_s = time.perf_counter() - t0
    if Path(mec.__file__).resolve().parent != SRC / "mec":
        raise ImportError(f"imported mec from {mec.__file__}, not from {SRC}")
    return mec, total_s * _scale(before, reference_s(EDGE_REF_REPS)), total_s, oracle_s


@dataclass
class Passes:
    latencies: list[float]  # seconds as measured, one per op in op order
    scales: list[float]  # each op's factor to seconds at the nominal speed
    outcomes: list[workloads.Outcome]
    elapsed: float  # wall seconds of the loop

    @property
    def scaled(self) -> list[float]:
        return [t * k for t, k in zip(self.latencies, self.scales)]


def run_passes(mec, wl: workloads.Workload, pool: list, seconds: float,
               tracer: Tracer | None = None) -> Passes:
    """Whole passes over ``pool`` until ``seconds`` have elapsed.

    Only ``wl.op`` is timed. The workload's output check runs after the op's
    clock has stopped, outside every span. The reference runs between ops,
    at least every ``REF_EVERY_S``, and once more at the end; each op is
    scaled by the mean of the reference times on either side of it.
    """
    latencies: list[float] = []
    outcomes: list[workloads.Outcome] = []
    refs = [reference_s(EDGE_REF_REPS)]
    before: list[int] = []  # index of the last reference run before each op
    start = last_ref = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or not outcomes:
        for inst in pool:
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(_reference_since(last_ref))
                last_ref = time.perf_counter()
            before.append(len(refs) - 1)
            root = tracer.begin_op(len(outcomes)) if tracer else None
            t0 = time.perf_counter()
            outcome = wl.op(mec, inst)
            latencies.append(time.perf_counter() - t0)
            outcomes.append(outcome)
            if tracer:
                tracer.close(root)
                tracer.revalidate(mec)
            if outcome.passed:
                wl.check(inst, outcome)
    elapsed = time.perf_counter() - start
    refs.append(_reference_since(last_ref))
    scales = [_scale(refs[k], refs[k + 1]) for k in before]
    return Passes(latencies, scales, outcomes, elapsed)


def end_to_end(latencies, outcomes, setup_s: float) -> dict[str, float]:
    """End-to-end metrics from op latencies and the median set-up time."""
    passed = [t for t, o in zip(latencies, outcomes) if o.passed]
    if not passed:
        raise RuntimeError("no op passed its check; latency is undefined")
    return {
        # per second the one caller spent in ops, so the harness's untimed
        # output checks do not count
        "ops_per_s": len(passed) / math.fsum(latencies),
        "op_p50_s": statistics.median(passed),
        "op_p90_s": statistics.quantiles(passed, n=10, method="inclusive")[-1]
        if len(passed) > 1 else passed[0],
        "pass_frac": len(passed) / len(outcomes),
        "gap_bits": statistics.fmean(g for o in outcomes for g in o.gaps),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def outcome_metrics(outcomes) -> dict[str, float]:
    """Per-op means of what the ops themselves report, for the traced run."""
    n = len(outcomes)
    return {
        "cli.bytes_in": sum(o.bytes_in for o in outcomes) / n,
        "cli.bytes_out": sum(o.bytes_out for o in outcomes) / n,
        "cli.failed": sum(o.cli_failed for o in outcomes) / n,
        "errors.mec_raised": sum(o.error_kind == "mec" for o in outcomes) / n,
        "errors.foreign_raised": sum(o.error_kind == "foreign" for o in outcomes) / n,
    }


def tracing_overhead(untraced: list[float], traced: list[float]) -> float:
    """Median relative slow-down of traced ops over the same untraced ops.

    Both halves start at the first instance of the pool, so op j of each half
    ran the same instance.
    """
    return statistics.median((t - u) / u for u, t in zip(untraced, traced))


def environment() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                platform.processor(),
            )
    except OSError:
        cpu = platform.processor()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "cpu": cpu or "unknown",
    }


def failure_summary(outcomes) -> dict[str, dict]:
    """Failed ops by exception type or check, with the first diagnostic of each."""
    counts: Counter = Counter()
    first: dict[str, str] = {}
    for o in outcomes:
        if not o.passed:
            key = o.error.split(":", 1)[0]
            counts[key] += 1
            first.setdefault(key, o.error[:200])
    return {key: {"count": counts[key], "example": first[key]} for key in sorted(counts)}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark the mec package on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    gc_start = (gc.isenabled(), gc.get_threshold())
    if not (SRC / "mec" / "__init__.py").is_file():
        print(f"error: no mec package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    workdir = BENCH_DIR / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = wl.make_pool(args.seed, str(workdir))
        mec, scaled_s, total_s, oracle_s = set_up(wl, pool, str(workdir))
        setups, raw_setups, oracle_warm = [scaled_s], [total_s], [oracle_s]
        gc.collect()  # input generation's garbage is not the first op's to pay
        if args.trace:
            half = args.seconds / 2
            untraced = run_passes(mec, wl, pool, half)
            tracer = Tracer()
            tracer.install(mec)
            traced = run_passes(mec, wl, pool, half, tracer)
            outcomes = untraced.outcomes + traced.outcomes
            values = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
            values.update(tracer.layer_metrics(len(traced.outcomes)))
            values.update(outcome_metrics(traced.outcomes))
            values["trace.overhead_frac"] = tracing_overhead(untraced.scaled, traced.scaled)
            units = {name: unit for name, unit, _ in PER_LAYER}
            extra = {"untraced_ops": len(untraced.outcomes), "traced_ops": len(traced.outcomes),
                     "spans": len(tracer.spans)}
            del tracer
        else:
            passes = run_passes(mec, wl, pool, args.seconds)
            outcomes = passes.outcomes
            units = dict(END_TO_END)
            extra = {"elapsed_s": passes.elapsed}
        del mec  # lets the next set-up free this import's caches
        # one set-up before the loop, the rest after it, so that the median
        # spans the run rather than one moment of a shared machine
        for _ in range(wl.setup_reps - 1):
            _, scaled_s, total_s, oracle_s = set_up(wl, pool, str(workdir))
            setups.append(scaled_s)
            raw_setups.append(total_s)
            oracle_warm.append(oracle_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        values["oracle.warm_s"] = statistics.median(oracle_warm)
    else:
        values = end_to_end(passes.scaled, outcomes, statistics.median(setups))
        as_measured = end_to_end(passes.latencies, outcomes, statistics.median(raw_setups))
        extra["as_measured"] = {name: as_measured[name] for name in
                                ("ops_per_s", "op_p50_s", "op_p90_s", "setup_s")}
        extra["reference_median_s"] = REF_NOMINAL_S / statistics.median(passes.scales)

    gc_end = (gc.isenabled(), gc.get_threshold())
    passed = sum(o.passed for o in outcomes)
    opt_gaps = [g for o in outcomes for g in o.opt_gaps]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pool": len(pool),
        "ops": len(outcomes),
        "passed": passed,
        "fail_frac": (len(outcomes) - passed) / len(outcomes),
        "setups": len(setups),
        "failures": failure_summary(outcomes),
        **extra,
        "environment": {
            **environment(),
            "gc_enabled": gc_end[0],
            "gc_threshold": list(gc_end[1]),
            "gc_at_interpreter_defaults": gc_start == gc_end and gc_end[0],
        },
    }
    if opt_gaps:
        report["opt_gap_bits"] = statistics.fmean(opt_gaps)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"{passed} of {len(outcomes)} ops passed; fail_frac {report['fail_frac']:.4f}")
    for key, failure in report["failures"].items():
        print(f"  failed {failure['count']} x {key}, e.g. {failure['example']}")
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:.6g} {unit}")
    if not args.trace:
        print(f"  (op_p50_s and op_p90_s over {passed} passed ops)")
    if opt_gaps:
        print(f"  opt_gap_bits {report['opt_gap_bits']:.6g} bit over {len(opt_gaps)} couplings")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        # an op that raised produced no output; correct is false only when
        # an output came back and failed its check
        "correct": not any(o.error_kind == "check" for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(outcomes) - passed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
