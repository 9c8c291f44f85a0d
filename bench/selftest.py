"""Self-test of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q bench/selftest.py

It checks that a failing op is counted rather than crashing the run, that
inputs are a pure function of the seed, and that every metric the benchmark
prints is declared in BENCHMARK.json with a well-formed name.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = run.BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
sys.path.insert(0, str(run.SRC))
import mec  # noqa: E402  (imported from this checkout's src/)
import mec.cli  # noqa: E402  (the package does not import its CLI)


@pytest.fixture
def workdir(request):
    path = run.BENCH_DIR / ".work" / f"selftest-{os.getpid()}-{request.node.name}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def skewed_vs_flat_pair() -> tuple[list[float], list[float]]:
    """A 38 x 7 pair on which both engines raise ValueError: sub-1e-12 mass
    of the skewed marginal lands in a padded zero column."""
    r = random.Random(6)
    n1 = r.randint(2, 40)
    n2 = r.randint(2, n1)
    p = [r.random() ** 4 for _ in range(n1)]
    q = [1 + 0.01 * r.random() for _ in range(n2)]
    sp, sq = math.fsum(p), math.fsum(q)
    return [x / sp for x in p], [x / sq for x in q]


def test_known_failing_pair_is_counted_not_fatal():
    p, q = skewed_vs_flat_pair()
    assert (len(p), len(q)) == (38, 7)
    outcome = workloads.pair_op(mec, (p, q))
    assert not outcome.passed
    assert outcome.error_kind == "foreign"
    assert outcome.error.startswith("ValueError: ")

    good = ([0.5, 0.3, 0.2], [0.6, 0.4])
    wl = workloads.WORKLOADS["pair-1e5"]
    passes = run.run_passes(mec, wl, [(p, q), good], 0.0)
    outcomes = passes.outcomes
    assert [o.passed for o in outcomes] == [False, True]
    assert run.failure_summary(outcomes)["ValueError"]["count"] == 1
    metrics = run.end_to_end(passes.scaled, outcomes, setup_s=1.0)
    assert metrics["pass_frac"] == 0.5


def _small_kway(workdir: Path) -> workloads.KwayInstance:
    dists = [[0.5, 0.5], [0.7, 0.2, 0.1], [1.0], [0.25, 0.75]]
    path = str(workdir / "dists.json")
    workloads.write_dists(path, dists)
    return workloads.KwayInstance(dists, path, str(workdir / "joint.json"),
                                  workloads.floor_entropy(dists))


def _checked(inst: workloads.KwayInstance) -> workloads.Outcome:
    out = workloads.Outcome()
    workloads.kway_check(inst, out)
    return out


def test_kway_check_passes_the_cli_output(workdir):
    inst = _small_kway(workdir)
    out = workloads.kway_op(mec, inst)
    assert out.passed and not out.gaps  # the op itself checks nothing
    workloads.kway_check(inst, out)
    assert out.passed, out.error
    assert out.bytes_out > 0 and len(out.gaps) == 1


def _rewrite(inst: workloads.KwayInstance, edit) -> None:
    doc = json.loads(Path(inst.out_path).read_text())
    edit(doc)
    Path(inst.out_path).write_text(json.dumps(doc))


@pytest.mark.parametrize("edit", [
    # an axis missing from the document
    lambda doc: (doc["dims"].pop(), [e["coords"].pop() for e in doc["entries"]]),
    lambda doc: doc["entries"][0].update(v=-doc["entries"][0]["v"]),
    lambda doc: doc["entries"][0].update(coords=[9, 0, 0, 0]),
    lambda doc: doc["entries"].append(doc["entries"][0]),
    lambda doc: doc.pop("entries"),
    lambda doc: doc["entries"][0].update(v=doc["entries"][0]["v"] / 2),
], ids=["short", "negative", "out-of-range", "repeated", "no-entries", "off-marginal"])
def test_kway_check_fails_a_wrong_document(workdir, edit):
    inst = _small_kway(workdir)
    assert workloads.kway_op(mec, inst).passed
    _rewrite(inst, edit)
    out = _checked(inst)
    assert not out.passed
    assert out.error_kind == "check", out.error


def test_kway_check_fails_a_missing_document(workdir):
    inst = _small_kway(workdir)
    assert workloads.kway_op(mec, inst).passed
    assert _checked(inst).passed
    # the first check deleted the document; a stale one cannot pass again
    out = _checked(inst)
    assert not out.passed
    assert out.error_kind == "check"
    assert "FileNotFoundError" in out.error


def _pool_bytes(name: str, seed: int, workdir: Path) -> bytes:
    pool = workloads.WORKLOADS[name].make_pool(seed, str(workdir))
    if name == "kway-cli":
        return b"".join(Path(inst.dists_path).read_bytes() for inst in pool)
    return json.dumps(pool).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, workdir):
    first = _pool_bytes(name, 7, workdir)
    assert first == _pool_bytes(name, 7, workdir)
    assert first != _pool_bytes(name, 8, workdir)


def test_declared_metrics_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    for name, *_ in list(run.END_TO_END) + spans.PER_LAYER:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_metrics_are_the_declared_ones(trace):
    proc = _bench(ROOT, "--workload", "certify-small", "--seed", "3", "--seconds", "0",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = spans.PER_LAYER if trace == "1" else run.END_TO_END
    assert list(result["metrics"]) == [name for name, *_ in declared]
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(metric) == {"value", "unit"}


def test_refuses_to_run_without_the_package(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(run.BENCH_DIR, workdir / "bench", ignore=shutil.ignore_patterns(".work"))
    proc = _bench(workdir, "--workload", "pair-1e5", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
