"""Check the output of one short smoke run of ``bench/run.py``.

Usage: python .github/check_smoke.py WORKLOAD OUTPUT_FILE

OUTPUT_FILE is what ``bench/run.py --workload WORKLOAD`` printed. Its last
line is the run's JSON result, which must say ``correct``.

- ``pair-1e5``: no op may fail.
- ``kway-cli`` and ``certify-small``: some op must have run, and the run's
  one ``report`` line may show one failure kind only: the padded-column
  ``ValueError`` of ROADMAP item 1, with "outside" in its example, at no
  more than the ``fail_frac`` the workload has at seed 1. A new failure
  mode, or more failures, fails the check. The fix for item 1 edits the
  caps here and nowhere else.

Exits 0 if the output passes, and 1 with the reason otherwise.
"""

from __future__ import annotations

import json
import sys

# the largest fail_frac each workload may show at seed 1; None: no failure
FAIL_CAPS = {"pair-1e5": None, "kway-cli": 0.5, "certify-small": 0.1}


def problems(workload: str, lines: list[str]) -> list[str]:
    """Why the smoke output ``lines`` of ``workload`` fails; empty if it passes."""
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        return [f"not correct: {result}"]
    cap = FAIL_CAPS[workload]
    if cap is None:
        return [] if result["failed"] == 0 else [f"ops failed: {result}"]
    if not result["attempted"] > 0:
        return [f"no op attempted: {result}"]
    reports = [line.split(" ", 1)[1] for line in lines if line.startswith("report ")]
    if len(reports) != 1:
        return [f"{len(reports)} report lines, expected 1"]
    report = json.loads(reports[0])
    failures = report["failures"]
    found = []
    if list(failures) != ["ValueError"]:
        found.append(f"failure kinds {list(failures)}, expected ['ValueError']")
    elif "outside" not in failures["ValueError"]["example"]:
        found.append(f"ValueError is not the padded-column one: {failures['ValueError']}")
    if not report["fail_frac"] <= cap:
        found.append(f"fail_frac {report['fail_frac']} above its cap {cap}")
    return found


def main(argv: list[str]) -> int:
    workload, path = argv
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    found = problems(workload, lines)
    for problem in found:
        print(f"{workload} smoke: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
