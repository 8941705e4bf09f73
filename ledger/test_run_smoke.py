"""Smoke test of the ledger itself — not part of tier-1; run it with
``python3 -m pytest ledger/test_run_smoke.py``.

Everything here runs ``--quick`` (fat-tree k=4, 12 operations): it checks
that the harness is wired correctly, never that a number is right.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

MANIFEST = json.loads(run.MANIFEST.read_text())
#: The per-layer times whose self times partition a traced operation.
SELF_TIME_METRICS = [
    "config.diff_ms",
    "lint.gate_ms",
    "routing.generation_ms",
    "ddlog.epoch_ms",
    "dataplane.update_ms",
    "policy.check_ms",
    "core.txn_capture_ms",
    "core.unattributed_ms",
    "serve.checkpoint_ms",
    "serve.shell_ms",
    "obs.journal_emit_ms",
]


def _ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
    )


def _layer_counts(workload: str, seed: int) -> dict:
    done = _ledger(
        "--workload", workload, "--seed", str(seed), "--trace", "1", "--quick"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        metric["name"]: result["metrics"][metric["name"]]["value"]
        for metric in MANIFEST["per_layer"]
        if metric["unit"] == "count"
    }


def test_quick_ledger_emits_the_manifest_and_accounts_for_all_time(tmp_path):
    out = tmp_path / "run.json"
    done = _ledger("--quick", "--seed", "5", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads(out.read_text())
    names = {w["name"] for w in MANIFEST["workloads"]}
    assert set(record["workloads"]) == set(run.WORKLOADS) == names
    expected = {m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    expected |= set(run.LEDGER_ONLY_UNITS)
    for name, workload in record["workloads"].items():
        metrics = workload["metrics"]
        assert set(metrics) == expected, name
        assert metrics["fail_share"] == 0 and metrics["oracle_mismatches"] == 0
        # Twelve operations support no tail: null, not a weaker statistic.
        assert metrics["change_p75_ms"] is None and metrics["change_p90_ms"] is None
        assert all(f" {metric} " in done.stdout for metric in expected)
        # Layer self times plus the unattributed remainder are the traced
        # operations' wall time, with nothing left over.
        trace = json.loads((run.OUT / f"{name}.trace.json").read_text())
        roots = [s for s in trace["spans"] if s["parent"] is None]
        assert len(roots) == workload["samples"]["traced_ops"] == run.QUICK_OPS
        op_wall_ms = 1000 * sum(s["end"] - s["start"] for s in roots) / len(roots)
        assert sum(metrics[m] for m in SELF_TIME_METRICS) == pytest.approx(
            op_wall_ms, rel=1e-6
        )


@pytest.mark.parametrize("workload", ["ospf-flap-k6", "serve-durable-k6"])
def test_layer_counts_repeat_for_a_seed_and_move_with_it(workload):
    first, again, other = (
        _layer_counts(workload, seed) for seed in (7, 7, 8)
    )
    assert first == again
    assert first != other


def test_oracle_bites_when_maintained_state_is_corrupted(tmp_path):
    workload = run.WORKLOADS["ospf-flap-k6"]
    count = run.WARMUP_OPS + run.QUICK_OPS + 1
    bench = run.set_up(workload, 3, True, count, tmp_path)
    stream = run.drive(bench, run.QUICK_OPS, None, tmp_path)
    assert stream.failed == 0
    # The corruption: one maintained EC analysis claims a forwarding loop.
    analyses = bench.verifier.checker._analyses
    ec = sorted(analyses)[0]
    analyses[ec] = dataclasses.replace(analyses[ec], loop_nodes=frozenset({"core0"}))
    end = run.epilogue(bench, stream, run.TRACED_REPS, tmp_path, False)
    assert any("loop-free" in line for line in end["mismatches"])


def test_compare_fails_on_a_rise_in_misreported_deltas():
    metrics = {
        m["name"]: 1.0 for m in MANIFEST["end_to_end"] + compare.LEDGER_ONLY
    }
    metrics.update(fail_share=0.0, unreported_flip_share=0.1, oracle_mismatches=0)

    def record(metrics: dict) -> dict:
        workload = {"metrics": metrics, "host_calib_ms": 20.0}
        return {"workloads": {"acl-batch-k6": workload}}

    assert compare.compare(record(metrics), record(metrics), MANIFEST) == 0
    risen = dict(metrics, unreported_flip_share=0.2)
    assert compare.compare(record(metrics), record(risen), MANIFEST) == 1
