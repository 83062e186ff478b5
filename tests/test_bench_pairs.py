"""The summary arithmetic of ``tools/bench_pairs.py``, on canned run
results; no benchmark runs."""

import importlib.util
import json
import operator
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPECS = [
    {"name": "samples_per_s", "better": "higher", "bound": 0.15},
    {"name": "op_ms.p50", "better": "lower", "bound": 0.15},
    {"name": "efficiency_pct", "better": "higher", "bound": 0.1},
    {"name": "final_sse", "better": "lower", "bound": 0.25},
]
# per metric, the parent's and the change's value in each of four pairs
VALUES = {
    "samples_per_s": ([100, 110, 90, 105], [120, 100, 95, 130]),
    "op_ms.p50": ([10, 10, 10, 10], [13, 10, 12, 11.6]),
    "efficiency_pct": ([50, 50, 50, 50], [50, 50, 50, 51]),
    "final_sse": ([1, 2, 3, 4], [1, 2, 3, 4]),
}


def run(side, pair, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 10 + pair,
        "failed": failed,
        "metrics": {
            name: {"value": values[side == "change"][pair], "unit": "-"}
            for name, values in VALUES.items()
        },
    }


def canned():
    pairs = [{"parent": run("parent", i), "change": run("change", i)} for i in range(4)]
    pairs[2]["change"] = run("change", 2, correct=False, failed=1)
    return {"train": pairs}


def test_run_order_alternates_with_the_seed(bench_pairs):
    assert bench_pairs.run_order(2500) == ("parent", "change")
    assert bench_pairs.run_order(2501) == ("change", "parent")


def test_summary_arithmetic(bench_pairs):
    summary = bench_pairs.summarize(canned(), SPECS)
    metrics = summary["workloads"]["train"]["metrics"]
    assert summary["workloads"]["train"]["pairs"] == 4

    throughput = metrics["samples_per_s"]
    # numpy.percentile, linear: sorted 90, 100, 105, 110
    assert throughput["parent"] == {
        "median": 102.5, "q1": 97.5, "q3": 106.25, "runs": [100, 110, 90, 105]
    }
    assert throughput["change"]["median"] == 110
    assert (throughput["change_wins"], throughput["ties"]) == (3, 0)
    assert throughput["median_ratio"] == round(110 / 102.5, 6)

    latency = metrics["op_ms.p50"]  # lower is better: a tie and no win
    assert (latency["change_wins"], latency["ties"]) == (0, 1)
    assert latency["change"]["median"] == 11.8
    assert (metrics["efficiency_pct"]["change_wins"], metrics["efficiency_pct"]["ties"]) == (1, 3)

    # 11.8 ms is more than 15% above 10 ms; 110/s is no fall
    assert summary["regressions_beyond_bound"] == ["train.op_ms.p50"]
    # final_sse's parent IQR 1.5 is more than 25% of its median 2.5
    assert summary["spread_wider_than_bound"] == ["train.final_sse"]
    assert summary["identical_across_all_pairs"] == {
        "train.efficiency_pct": False, "train.final_sse": True
    }
    assert summary["ops"] == {
        "attempted": {"parent": 46, "change": 46}, "failed": {"parent": 0, "change": 1}
    }
    assert summary["workloads"]["train"]["ops"] == summary["ops"]
    assert summary["all_runs_correct"] is False

    # |change median - parent median| against the parent's q3 - q1:
    # 7.5 is within 8.75, 1.8 is beyond 0, and no move is beyond 0
    assert {name: metric["beyond_parent_iqr"] for name, metric in metrics.items()} == {
        "samples_per_s": False, "op_ms.p50": True, "efficiency_pct": False, "final_sse": False
    }


def test_ops_per_workload_and_over_all(bench_pairs):
    pairs = canned()["train"]
    summary = bench_pairs.summarize({"train": pairs, "score": pairs[:2]}, SPECS)
    assert summary["workloads"]["score"]["ops"] == {
        "attempted": {"parent": 21, "change": 21}, "failed": {"parent": 0, "change": 0}
    }
    assert summary["ops"] == {
        "attempted": {"parent": 67, "change": 67}, "failed": {"parent": 0, "change": 1}
    }


def test_summary_has_the_committed_layout(bench_pairs):
    """The keys of the newest committed BENCH_*.json summary, which hold
    every key of an older one (BENCH_24, before per-workload ops)."""
    newest = json.loads((ROOT / "BENCH_27.json").read_text(encoding="utf-8"))
    older = json.loads((ROOT / "BENCH_24.json").read_text(encoding="utf-8"))
    summary = bench_pairs.summarize(canned(), SPECS)
    for key in ("all_runs_correct", "ops", "regressions_beyond_bound",
                "spread_wider_than_bound", "identical_across_all_pairs"):
        assert type(summary[key]) is type(newest[key])
    ours = summary["workloads"]["train"]
    assert ours["ops"].keys() == newest["workloads"]["train"]["ops"].keys()
    for committed, same in ((newest, operator.eq), (older, operator.ge)):
        theirs = committed["workloads"]["train"]
        assert same(ours.keys(), theirs.keys())
        ours_sse, theirs_sse = ours["metrics"]["final_sse"], theirs["metrics"]["final_sse"]
        assert same(ours_sse.keys(), theirs_sse.keys())
        for side in ("parent", "change"):
            assert ours_sse[side].keys() == theirs_sse[side].keys()
