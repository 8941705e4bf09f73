#!/usr/bin/env python3
"""Compare two ledger runs: ``python3 ledger/compare.py A.json B.json``.

A and B are records written by ``run.py --out`` (or lines cut from
``history.jsonl``); A is the reference, B the candidate.  Metric names,
directions and bounds come from ``BENCHMARK.json``, plus the one timing
only a ledger-sized stream supports (:data:`LEDGER_ONLY`).  One row is
printed per workload and end-to-end metric:

- ``better`` / ``worse``: B differs from A by more than the metric's bound;
- ``same``: within the bound;
- ``unresolved``: the host calibration loop ran more than 10 % apart in
  the two runs, so the hosts were not comparable and nothing is concluded.

Exit code 1 on any ``worse`` row, on any rise in ``fail_share`` or
``unreported_flip_share`` and on any oracle mismatch in B; 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Two runs are comparable when their calibration loops agree this well.
CALIBRATION_TOLERANCE = 0.10
#: In every ledger record but not in BENCHMARK.json, because the gated
#: run's streams are too short for it.
LEDGER_ONLY = [
    {"name": "change_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25}
]
#: Shares of operations that went wrong: any rise fails the comparison.
MUST_NOT_RISE = ("fail_share", "unreported_flip_share")


def verdict(
    a: float, b: float, better: str, bound: float, calib_a: float, calib_b: float
) -> str:
    if abs(calib_b - calib_a) > CALIBRATION_TOLERANCE * calib_a:
        return "unresolved"
    gain = (a - b) / a if better == "lower" else (b - a) / a
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def compare(a: Dict[str, Any], b: Dict[str, Any], manifest: Dict[str, Any]) -> int:
    """Print the table; return the number of failing rows."""
    failures = 0
    for workload in (w["name"] for w in manifest["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        rec_a, rec_b = a["workloads"][workload], b["workloads"][workload]
        for metric in manifest["end_to_end"] + LEDGER_ONLY:
            name = metric["name"]
            value_a, value_b = rec_a["metrics"][name], rec_b["metrics"][name]
            if value_a is None or value_b is None:
                # A --quick record: the stream is too short for the tail.
                print(f"{workload:18s} {name:20s} not supported by both runs")
                continue
            row = verdict(
                value_a, value_b, metric["better"], metric["bound"],
                rec_a["host_calib_ms"], rec_b["host_calib_ms"],
            )
            failures += row == "worse"
            print(
                f"{workload:18s} {name:20s} {value_a:12.4f} -> {value_b:12.4f} "
                f"{metric['unit']:4s} {100 * (value_b - value_a) / value_a:+7.1f}% "
                f"(bound {100 * metric['bound']:.0f}%)  {row}"
            )
        for name in MUST_NOT_RISE:
            share_a, share_b = rec_a["metrics"][name], rec_b["metrics"][name]
            if share_b > share_a:
                failures += 1
                print(f"{workload:18s} {name} rose: {share_a} -> {share_b}")
        mismatches = rec_b["metrics"]["oracle_mismatches"]
        if mismatches:
            failures += 1
            print(f"{workload:18s} oracle_mismatches = {mismatches}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    failures = compare(a, b, json.loads(MANIFEST.read_text()))
    print(f"{failures} failing row(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
