"""Self-test of the benchmark harness.

    python3 -m pytest -q benchmarks/tests

Starts real passes, so it takes about two minutes.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hostprobe  # noqa: E402
import run  # noqa: E402


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_probe_factor_rescales_to_the_reference_speed():
    ref = hostprobe.REFERENCE_S
    probe = hostprobe.HostProbe()
    probe.samples = [2 * ref] * 3 + [4 * ref]
    assert probe.factor(end=(3, 0)) == pytest.approx(0.5)
    assert probe.factor((3, 0), (3, 0)) == pytest.approx(0.4)  # falls back
    probe.children = [ref, 3 * ref]     # a pool's workers set its factor
    assert probe.factor((3, 0), (4, 2)) == pytest.approx(0.5)
    assert probe.factor((3, 2), (4, 2)) == pytest.approx(0.25)
    probe.samples = probe.children = []
    with pytest.raises(RuntimeError):
        probe.factor()


@pytest.mark.parametrize("trace, table", [(0, "end_to_end"),
                                          (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, table):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "arith", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    expected = [(m["name"], m["unit"]) for m in benchmark_json()[table]]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == \
        expected


def _corrupt_arith(ref):
    ref["arith"]["42"] = "0" * 64


def _corrupt_scan(ref):
    calls = ref["scan"]["calls"]["zmod:720"]
    calls["units"] = calls["units"][::-1]


@pytest.mark.parametrize("workload, corrupt", [("arith", _corrupt_arith),
                                               ("scan", _corrupt_scan)])
def test_corrupted_reference_digest_is_a_failure(tmp_path, workload,
                                                  corrupt):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    clean = run.run_pass(workload, 42)
    assert clean["failed"] == 0
    corrupt(ref)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    result = run.run_pass(workload, 42, reference=str(path))
    assert 0 < result["failed"] / result["attempted"] < 1


def test_kernel_counts_repeat_exactly():
    first = run.run_pass("arith", 5, "count")
    second = run.run_pass("arith", 5, "count")
    assert first["layers"] == second["layers"]
    assert first["layers"]["rings.k_mul.calls.gf"] > 0
    assert first["layers"]["skew.series_mul.calls"] > 0
