"""Check every committed before/after benchmark record, ``BENCH_<pr>.json``.

Usage: python .github/check_bench.py [FILE ...]   (default: every BENCH_*.json
at the repository root)

A record holds, per workload, the ``pairs`` of runs of the parent and of the
change, each with the end-to-end metrics ``bench/run.py`` printed. Its
``summary`` is derived again from those pairs, and must match:

- per metric, its direction (``better``) as ``BENCHMARK.json`` declares it;
- per side, the median and the quartiles, by ``statistics.median`` and
  ``statistics.quantiles(n=4)``;
- the pairs the change wins (strictly better) and the ties.

A workload with a single pair may have no summary. The record's ``claim``
names one workload and metric; its ``met`` is derived again: the change wins
at least 9 of 10 pairs (at least 10 pairs), and its median is better than the
parent's by more than the parent's interquartile range.

Exits 0 if every record passes, and 1 naming each mismatch otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summary(pairs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """The summary of ``pairs``, per metric the record's pairs report."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        sign = 1 if better[name] == "higher" else -1
        out[name] = {
            "better": better[name],
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": sum((c - p) * sign > 0 for p, c in zip(parent, change)),
            "ties": sum(p == c for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def met(stats: dict) -> bool:
    """The claim rule on one metric's summary."""
    sign = 1 if stats["better"] == "higher" else -1
    gain = (stats["change"]["median"] - stats["parent"]["median"]) * sign
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    return stats["pairs"] >= 10 and stats["change_wins"] >= 0.9 * stats["pairs"] and gain > iqr


def problems(record: dict, better: dict[str, str]) -> list[str]:
    """Why ``record`` fails the check; empty if it passes."""
    out = []
    for workload, entry in record.items():
        if not (isinstance(entry, dict) and "pairs" in entry):
            continue
        if "summary" not in entry:
            if len(entry["pairs"]) > 1:
                out.append(f"{workload}: {len(entry['pairs'])} pairs and no summary")
            continue
        derived = summary(entry["pairs"], better)
        if set(derived) != set(entry["summary"]):
            out.append(f"{workload}: summary metrics {sorted(entry['summary'])}, "
                       f"pairs report {sorted(derived)}")
        for name in sorted(set(derived) & set(entry["summary"])):
            if entry["summary"][name] != derived[name]:
                out.append(f"{workload}.{name}: summary {entry['summary'][name]}, "
                           f"derived {derived[name]}")
    claim = record["claim"]
    stats = record.get(claim["workload"], {}).get("summary", {}).get(claim["metric"])
    if stats is None:
        out.append(f"claim: no summary of {claim['workload']}.{claim['metric']}")
    elif claim["better"] != better[claim["metric"]]:
        out.append(f"claim: {claim['metric']} better {claim['better']}, "
                   f"BENCHMARK.json says {better[claim['metric']]}")
    elif claim["met"] != met(stats):
        out.append(f"claim: met is {claim['met']}, derived {met(stats)}")
    return out


def main(argv: list[str]) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in declared}
    files = [Path(arg) for arg in argv] or sorted(ROOT.glob("BENCH_*.json"))
    failed = False
    for path in files:
        found = problems(json.loads(path.read_text()), better)
        for problem in found:
            print(f"{path.name}: {problem}")
        print(f"{path.name}: {'FAIL' if found else 'ok'}")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
