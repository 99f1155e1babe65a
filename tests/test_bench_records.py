"""The before/after benchmark records at the repository root stay readable.

Every BENCH_<n>.json holds the alternating parent/change runs of one
change, as benchmarks/run.py printed them, a summary of their medians
and quartiles, and a counting pass.  This lint checks that each record
parses, has the record keys, pairs every parent run with a change run,
holds only correct runs with no failed operation, and names only
metrics that BENCHMARK.json defines: end-to-end names in the runs and
the summary, per-layer names in the counting pass.  BENCHMARK.json is
read, never written."""

import json
import re
from numbers import Number
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(p for p in ROOT.glob("BENCH_*.json")
                 if re.fullmatch(r"BENCH_\d+\.json", p.name))
KEYS = {"change", "parent", "command", "host", "order", "runs", "summary",
        "counting_pass"}
SIDES = ("parent", "change")
# summary entries that are no metric: the failed share of operations,
# and per metric the number of pairs the change won
FAIL_FRAC = "fail_frac"
PAIRS_WON = "_pairs_won_by_change"


def _names(table):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[table]}


def _counted_names(node):
    """Names of every number in the counting pass, at any depth."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _counted_names(value)
        elif isinstance(value, Number):
            yield key


def test_the_repository_has_benchmark_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_benchmark_record(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert KEYS <= record.keys()
    end_to_end = _names("end_to_end")
    for workload, runs in record["runs"].items():
        assert set(runs) == set(SIDES), workload
        assert len(runs["parent"]) == len(runs["change"]) > 0, workload
        for side in SIDES:
            for run in runs[side]:
                assert run["correct"] is True and run["failed"] == 0, (workload, side)
                assert set(run["metrics"]) <= end_to_end, (workload, side)
    assert set(record["summary"]) == set(record["runs"])
    for workload, summary in record["summary"].items():
        for name, entry in summary.items():
            if name == FAIL_FRAC:
                assert entry == {"parent": 0.0, "change": 0.0}, workload
            elif name.endswith(PAIRS_WON):
                assert name[:-len(PAIRS_WON)] in end_to_end, (workload, name)
            else:
                assert name in end_to_end, (workload, name)
                for side in SIDES:
                    assert entry[side]["n"] == len(record["runs"][workload][side])
    assert set(_counted_names(record["counting_pass"])) <= _names("per_layer")
