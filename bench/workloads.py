"""Seeded inputs, operations and output checks for the mec benchmark.

Each workload is a fixed design (sizes, shapes, mass families and their
parameters) realised from the seed: the seed draws every random mass, every
shuffle and every dyadic split, so the same seed gives byte-identical inputs.
The design is fixed so that runs on different seeds do the same amount of
work of the same kind.

An op calls the package's public API on one instance. On ``pair-1e5`` and
``certify-small`` the op itself checks what comes back; on ``kway-cli`` the
workload's ``check`` reads the written document after the op's clock has
stopped. Neither raises: an exception or a failed check is recorded in the
op's :class:`Outcome` and the harness counts it.

The ``mec`` package is passed in as an argument rather than imported here,
because the harness imports it afresh for every set-up repetition.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field

# slack on every numeric check: the package's own normalization tolerance
EPS = 1e-9

ZIPF_EXPONENT = 1.1
# geometric masses fall by this many nats from the first to the last
# component, whatever the length, so every length has a tail far below the
# package's 1e-12 internal tolerance
GEOMETRIC_DECAY = 50.0
DYADIC_GRID = 64

PAIR_N = 100_000
PAIR_POOL = 3

KWAY_LENGTHS = (5_000, 20_000, 10_000, 15_000)
# one row per instance, one family per axis: four rotations that mix every
# family, then two rows that merge like with like; lengths rotate at another
# pace, so every family meets every length
KWAY_SLOTS = (
    ("uniform", "zipf", "geometric", "flat"),
    ("zipf", "geometric", "flat", "uniform"),
    ("geometric", "flat", "uniform", "zipf"),
    ("flat", "uniform", "zipf", "geometric"),
    ("uniform", "uniform", "flat", "flat"),
    ("zipf", "zipf", "geometric", "geometric"),
)
KWAY_GAP_BUDGET = 2  # ceil(log2 4) bits for k = 4 marginals

CERTIFY_SHAPES = (
    (4, 5), (5, 4), (2, 10), (10, 2), (4, 4), (3, 5),
    (5, 3), (3, 4), (4, 3), (2, 6), (6, 2), (3, 3),
)
CERTIFY_FAMILIES = ("uniform", "zipf", "geometric", "flat", "dyadic")
CERTIFY_PAIRS = tuple(itertools.product(CERTIFY_FAMILIES, repeat=2))
# 12 shapes and 25 family pairs are coprime, so the pool holds every
# (shape, p family, q family) combination exactly once
CERTIFY_POOL = len(CERTIFY_SHAPES) * len(CERTIFY_PAIRS)


@dataclass
class Outcome:
    """What one op did: pass/fail, why, and the entropy gaps it produced."""

    passed: bool = True
    error: str | None = None  # "ValueError: ..." or "check: ..."
    error_kind: str | None = None  # "mec", "foreign" or "check"
    gaps: list[float] = field(default_factory=list)  # H - H_glb per coupling
    opt_gaps: list[float] = field(default_factory=list)  # H - OPT per coupling
    bytes_in: int = 0
    bytes_out: int = 0
    cli_failed: bool = False

    def fail(self, kind: str, error: str) -> "Outcome":
        self.passed = False
        self.error_kind = kind
        self.error = error
        return self

    def raised(self, mec, exc: BaseException) -> "Outcome":
        kind = "mec" if isinstance(exc, mec.MecError) else "foreign"
        return self.fail(kind, f"{type(exc).__name__}: {exc}")

    def check(self, ok: bool, diagnostic: str) -> bool:
        """Record a failed check unless ``ok``; keeps the first diagnostic."""
        if not ok and self.passed:
            self.fail("check", f"check: {diagnostic}")
        return ok


def _normalized(values: list[float]) -> list[float]:
    total = math.fsum(values)
    return [x / total for x in values]


def family(rng: random.Random, name: str, n: int) -> list[float]:
    """A length-``n`` probability vector of the named family, in caller order."""
    if name == "uniform":
        return _normalized([rng.random() for _ in range(n)])
    if name == "zipf":
        values = [(k + 1) ** -ZIPF_EXPONENT for k in range(n)]
        rng.shuffle(values)
        return _normalized(values)
    if name == "geometric":
        values = [math.exp(-GEOMETRIC_DECAY * k / n) for k in range(n)]
        rng.shuffle(values)
        return _normalized(values)
    if name == "flat":
        return _normalized([1.0 + 0.01 * rng.random() for _ in range(n)])
    if name == "dyadic":
        cuts = sorted(rng.sample(range(1, DYADIC_GRID), n - 1))
        edges = [0, *cuts, DYADIC_GRID]
        return [(b - a) / DYADIC_GRID for a, b in zip(edges, edges[1:])]
    raise ValueError(f"unknown family {name!r}")


def floor_entropy(dists: list[list[float]]) -> float:
    """Entropy in bits of the majorization glb of ``dists``.

    An independent reference for the k-way check: the glb's prefix sums are
    the pointwise minima of the sorted marginals' prefix sums.
    """
    n = max(len(d) for d in dists)
    prefixes = [
        list(itertools.accumulate(sorted(d, reverse=True) + [0.0] * (n - len(d))))
        for d in dists
    ]
    floor = [min(column) for column in zip(*prefixes)]
    masses = [b - a for a, b in zip([0.0, *floor], floor)]
    return -math.fsum(z * math.log2(z) for z in masses if z > 0.0)


def _gap_in_window(out: Outcome, gap: float, width: float, what: str) -> None:
    out.check(-EPS <= gap <= width + EPS, f"{what} {gap!r} outside [0, {width}]")


# --- pair-1e5 -------------------------------------------------------------

def pair_pool(seed: int) -> list[tuple[list[float], list[float]]]:
    rng = random.Random(f"pair-1e5:{seed}")
    return [
        (family(rng, "uniform", PAIR_N), family(rng, "uniform", PAIR_N))
        for _ in range(PAIR_POOL)
    ]


def pair_op(mec, inst) -> Outcome:
    """The README quick tour: couple, validate, and measure the gap."""
    p, q = inst
    out = Outcome()
    try:
        m = mec.min_entropy_coupling_sparse(p, q)
        ok, why = mec.is_valid_coupling(m, p, q, tol=EPS)
        h = mec.shannon_entropy(m.values())
        h_glb = mec.shannon_entropy(mec.glb(p, q).masses)
    except Exception as exc:  # counted as a failed op, never re-raised
        return out.raised(mec, exc)
    out.gaps.append(h - h_glb)
    out.check(ok, f"invalid coupling: {why}")
    _gap_in_window(out, h - h_glb, 1, "gap")
    return out


def pair_warm_up(mec, pool, workdir) -> float:
    pair_op(mec, ([0.5, 0.3, 0.2], [0.6, 0.4]))
    return 0.0


# --- kway-cli -------------------------------------------------------------

@dataclass
class KwayInstance:
    dists: list[list[float]]
    dists_path: str
    out_path: str
    h_floor: float


def write_dists(path: str, dists: list[list[float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dists": dists}, fh)


def kway_pool(seed: int, workdir: str) -> list[KwayInstance]:
    rng = random.Random(f"kway-cli:{seed}")
    pool = []
    for i, slot in enumerate(KWAY_SLOTS):
        dists = [
            family(rng, name, KWAY_LENGTHS[(2 * i + a) % len(KWAY_LENGTHS)])
            for a, name in enumerate(slot)
        ]
        path = os.path.join(workdir, f"dists-{i}.json")
        write_dists(path, dists)
        out_path = os.path.join(workdir, f"joint-{i}.json")
        pool.append(KwayInstance(dists, path, out_path, floor_entropy(dists)))
    return pool


def kway_op(mec, inst: KwayInstance) -> Outcome:
    """`mec couple-k` in-process; :func:`kway_check` reads its document later."""
    out = Outcome(bytes_in=os.path.getsize(inst.dists_path))
    argv = ["couple-k", "--dists", inst.dists_path, "--out", inst.out_path]
    try:
        code = mec.cli.run(argv)
    except Exception as exc:  # counted as a failed op, never re-raised
        out.cli_failed = True
        return out.raised(mec, exc)
    if code != 0:
        # the CLI turned a MecError into exit code 2 or 3
        out.cli_failed = True
        return out.fail("mec", f"exit code {code}")
    return out


def read_joint(doc, dists: list[list[float]]) -> tuple[list[list[float]], list[float]]:
    """Axis marginals and cell values of a couple-k document.

    Computed here rather than by the package, so the check does not rely on
    the code it checks. Raises on a malformed document: wrong dims, a cell
    value that is not a positive number, coordinates of the wrong length, out
    of range or repeated, or a missing key.
    """
    dims = [len(d) for d in dists]
    if doc["dims"] != dims:
        raise ValueError(f"dims {doc['dims']!r}, want {dims!r}")
    cells: list[list[list[float]]] = [[[] for _ in range(n)] for n in dims]
    values: list[float] = []
    seen: set[tuple] = set()
    for entry in doc["entries"]:
        v, coords = entry["v"], tuple(entry["coords"])
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 < v <= 1.0 + EPS:
            raise ValueError(f"cell value {v!r} at {coords!r}")
        if len(coords) != len(dims) or not all(
            type(c) is int and 0 <= c < n for c, n in zip(coords, dims)
        ):
            raise ValueError(f"coords {coords!r} outside {dims!r}")
        if coords in seen:
            raise ValueError(f"coords {coords!r} appear twice")
        seen.add(coords)
        values.append(v)
        for axis, c in enumerate(coords):
            cells[axis][c].append(v)
    return [[math.fsum(c) for c in axis] for axis in cells], values


def kway_check(inst: KwayInstance, out: Outcome) -> None:
    """Check the document a successful couple-k wrote: its axis marginals
    against the inputs and its entropy against the glb floor.

    The CLI has exited 0 by now, so a document that cannot be read back is a
    wrong output, not a raised op. The document is deleted once read, so a
    later op that exits 0 without writing one fails here.
    """
    try:
        out.bytes_out = os.path.getsize(inst.out_path)
        with open(inst.out_path, encoding="utf-8") as fh:
            margins, values = read_joint(json.load(fh), inst.dists)
    except Exception as exc:  # a failed check, never re-raised
        out.fail("check", f"check: unreadable document: {type(exc).__name__}: {exc}")
        return
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(inst.out_path)
    h = -math.fsum(v * math.log2(v) for v in values)
    out.gaps.append(h - inst.h_floor)
    for axis, (got, want) in enumerate(zip(margins, inst.dists, strict=True)):
        worst = max(abs(a - b) for a, b in zip(got, want, strict=True))
        if not out.check(worst <= EPS, f"axis {axis} marginal off by {worst!r}"):
            break
    _gap_in_window(out, h - inst.h_floor, KWAY_GAP_BUDGET, "gap")


def kway_warm_up(mec, pool, workdir) -> float:
    dists = [[0.5, 0.5], [0.7, 0.2, 0.1], [1.0], [0.25, 0.75]]
    path = os.path.join(workdir, "warm-up.json")
    write_dists(path, dists)
    inst = KwayInstance(dists, path, os.path.join(workdir, "warm-up-out.json"),
                        floor_entropy(dists))
    kway_check(inst, kway_op(mec, inst))
    return 0.0


# --- certify-small --------------------------------------------------------

def certify_pool(seed: int) -> list[tuple[list[float], list[float]]]:
    rng = random.Random(f"certify-small:{seed}")
    pool = []
    for j in range(CERTIFY_POOL):
        n, m = CERTIFY_SHAPES[j % len(CERTIFY_SHAPES)]
        fp, fq = CERTIFY_PAIRS[j % len(CERTIFY_PAIRS)]
        pool.append((family(rng, fp, n), family(rng, fq, m)))
    return pool


def certify_op(mec, inst) -> Outcome:
    """Certify both engines against the exact oracle and the reports."""
    p, q = inst
    out = Outcome()
    try:
        opt = mec.brute_force_min_entropy(p, q).opt_value
        couplings = (
            mec.min_entropy_coupling_sparse(p, q),
            mec.min_entropy_coupling_dense(p, q),
        )
        verdicts = [mec.is_valid_coupling(m, p, q, tol=EPS) for m in couplings]
        hs = [mec.shannon_entropy(m.values()) for m in couplings]
        est = mec.metric_estimate(p, q)
        rep = mec.bounds_report(p, q)
    except Exception as exc:  # counted as a failed op, never re-raised
        return out.raised(mec, exc)
    for engine, (ok, why), h in zip(("sparse", "dense"), verdicts, hs):
        out.gaps.append(h - rep.h_glb)
        out.opt_gaps.append(h - opt)
        out.check(ok, f"{engine} coupling invalid: {why}")
        _gap_in_window(out, h - opt, 1, f"{engine} gap to OPT")
    d_true = 2.0 * opt - rep.h_p - rep.h_q
    out.check(
        est.lower - EPS <= d_true <= est.d_hat + EPS,
        f"metric {d_true!r} outside [{est.lower!r}, {est.d_hat!r}]",
    )
    out.check(rep.joint_lower <= opt + EPS, f"joint_lower {rep.joint_lower!r} above OPT {opt!r}")
    return out


def certify_warm_up(mec, pool, workdir) -> float:
    """First calls, plus the oracle's per-shape cache; returns the oracle's share."""
    certify_op(mec, ([0.5, 0.5], [0.75, 0.25]))
    shapes = sorted({(len(p), len(q)) for p, q in pool})
    t0 = time.perf_counter()
    for n, m in shapes:
        mec.brute_force_min_entropy([1.0 / n] * n, [1.0 / m] * m)
    return time.perf_counter() - t0


def no_check(inst, out: Outcome) -> None:
    """For ops whose checks are part of the op itself."""


@dataclass(frozen=True)
class Workload:
    name: str
    make_pool: Callable  # (seed, workdir) -> list of instances
    op: Callable  # (mec, instance) -> Outcome; the timed part
    warm_up: Callable  # (mec, pool, workdir) -> seconds of it spent in the oracle
    # (instance, outcome) -> None: output checks run after the op's clock has
    # stopped, on ops that did not raise
    check: Callable = no_check
    # fresh imports per run whose median is setup_s; fewer where a set-up
    # takes seconds
    setup_reps: int = 15


WORKLOADS = {
    "pair-1e5": Workload("pair-1e5", lambda seed, workdir: pair_pool(seed), pair_op, pair_warm_up),
    "kway-cli": Workload("kway-cli", kway_pool, kway_op, kway_warm_up, check=kway_check),
    "certify-small": Workload(
        "certify-small", lambda seed, workdir: certify_pool(seed), certify_op, certify_warm_up,
        setup_reps=3,
    ),
}
