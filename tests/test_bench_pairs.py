"""The summary arithmetic of ``tools/bench_pairs.py`` on synthetic runs."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {"workloads": [{"name": "loop_box"}, {"name": "loop_deepc"}], "end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]}


def synthetic_runs(parent_setup, change_setup, parent_rss=80.0, change_rss=80.0):
    runs = []
    for side, setups, rss in (("parent", parent_setup, parent_rss),
                              ("change", change_setup, change_rss)):
        for pair, setup in enumerate(setups, start=1):
            metrics = {"loop_box.setup_s": {"value": setup, "unit": "s"},
                       "loop_box.peak_rss_mb": {"value": rss, "unit": "MB"}}
            runs.append({"side": side, "pair": pair, "seed": 1, "environment": {"nproc": 2},
                         "result": {"correct": True, "attempted": 3, "failed": 0,
                                    "metrics": metrics}})
    return runs


def test_quartiles_are_numpy_percentiles(pairs):
    values = [0.7, 0.1, 0.4, 0.9, 0.3, 0.2]
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    assert pairs.quartiles(values) == {"q1": pairs.sig6(q1), "median": pairs.sig6(med),
                                       "q3": pairs.sig6(q3)}
    assert pairs.quartiles([2.5]) == {"q1": 2.5, "median": 2.5, "q3": 2.5}


def test_compare_counts_pairs_and_checks_the_bound(pairs):
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [9.0, 11.5, 11.0, 12.0, 13.0]  # lower in pairs 1, 3, 4 and 5
    row = pairs.compare(parent, change, "s", "lower", 0.25)
    assert row["change_lower_in"] == "4/5"
    assert row["parent"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
    assert row["change_over_parent"] == pytest.approx(11.5 / 12.0, rel=1e-6)
    assert row["within_bound"] and not row["median_outside_parent_iqr"]
    # 12 * 1.25 = 15 is the bound; a median of 15.5 is past it.
    worse = pairs.compare(parent, [15.5] * 5, "s", "lower", 0.25)
    assert not worse["within_bound"] and worse["median_outside_parent_iqr"]
    assert worse["change_lower_in"] == "0/5"
    # For a higher-is-better metric the same drop is a worsening.
    assert not pairs.compare(parent, [8.0] * 5, "n", "higher", 0.25)["within_bound"]


def test_claim_needs_nine_of_ten_and_the_iqr_gap(pairs):
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    iqr = np.subtract(*np.percentile(parent, [75, 25]))
    change = [p - 0.05 for p in parent]
    block = pairs.claim_block("loop_box", "setup_s", "s", parent, change)
    assert block["met"] and block["change_lower_in"] == "10/10"
    assert block["parent_iqr"] == pairs.sig6(iqr)
    two_worse = change[:8] + [2.0, 2.0]
    assert not pairs.claim_met(parent, two_worse)  # 8 of 10
    one_worse = change[:9] + [2.0]
    assert pairs.claim_met(parent, one_worse)  # 9 of 10
    small = [p - 0.5 * iqr for p in parent]  # lower in every pair, inside the IQR
    assert not pairs.claim_met(parent, small)


def test_summarize_writes_the_bench_schema(pairs):
    parent = [0.00175, 0.00176, 0.00174, 0.00177]
    change = [0.00165, 0.00166, 0.00164, 0.00167]
    runs = synthetic_runs(parent, change)
    second = synthetic_runs(parent[:2], change[:2])
    doc = pairs.summarize(SPEC, runs, "a change", "abc123", "cmd", claim="loop_box.setup_s",
                          second=second, second_command="cmd2")
    json.dumps(doc)  # serializable
    assert list(doc) == ["description", "parent_commit", "command", "order", "host",
                         "environment", "claim", "pairs"]
    assert doc["pairs"]["attempted"] == {"parent": 12, "change": 12}
    assert doc["pairs"]["correct"] == {"parent": True, "change": True}
    rows = doc["pairs"]["end_to_end"]["loop_box"]
    assert set(rows) == {"setup_s", "peak_rss_mb"}
    assert rows["setup_s"]["change_lower_in"] == "4/4"
    assert rows["setup_s"]["parent_runs"] == parent
    assert rows["peak_rss_mb"]["within_bound"]
    assert doc["claim"]["met"] and doc["claim"]["second_seed"]["change_lower_in"] == "2/2"
    with pytest.raises(ValueError):
        pairs.summarize(SPEC, runs[:-1], "", "", "")


def test_one_workload_runs_get_prefixed_metric_names(pairs):
    result = {"correct": True, "metrics": {"setup_s": {"value": 1.0, "unit": "s"},
                                           "loop_box.wall_s": {"value": 2.0, "unit": "s"}}}
    named = pairs.with_workload_keys(result, "loop_box")
    assert set(named["metrics"]) == {"loop_box.setup_s", "loop_box.wall_s"}
    assert named["correct"] and set(result["metrics"]) == {"setup_s", "loop_box.wall_s"}
