"""The summaries and the completeness check of ``tools/bench_record.py``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

BENCHMARK = {"workloads": [{"name": "w1"}, {"name": "w2"}],
             "end_to_end": [{"name": "speed", "better": "higher"},
                            {"name": "cost", "better": "lower"}]}


def _run(speed, cost, correct=True):
    return {"correct": correct, "attempted": 4,
            "metrics": {"speed": {"value": speed, "unit": "1/s"},
                        "cost": {"value": cost, "unit": "s"}}}


def test_summary_of_runs():
    got = bench_record.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert got["median"] == 3.0 and got["range"] == [1.0, 5.0] and got["iqr"] == 2.0
    one = bench_record.summary([7.0])
    assert one["median"] == 7.0 and one["range"] == [7.0, 7.0] and one["iqr"] == 0.0


def test_side_record_keeps_runs_in_order_and_the_traced_layers():
    traced = {"correct": True, "attempted": 4, "metrics": {"layer.calls": {"value": 3}}}
    got = bench_record.side_record([_run(2.0, 1.0), _run(4.0, 0.5, correct=False)], traced, [1, 2])
    assert got["metrics"]["speed"]["values"] == [2.0, 4.0]
    assert got["metrics"]["cost"]["unit"] == "s"
    assert got["attempted"] == [4, 4] and got["correct"] == [True, False]
    assert got["traced"]["layers"] == traced["metrics"]


def test_pairs_won_follow_the_better_direction_and_ignore_ties():
    change, parent = bench_record.summary([3.0, 2.0, 5.0]), bench_record.summary([2.0, 2.0, 4.0])
    assert bench_record.pairs_won(change, parent, "higher")["won"] == 2
    assert bench_record.pairs_won(change, parent, "lower")["won"] == 0
    assert bench_record.pairs_won(change, parent, "higher")["median_change"] == 0.5


def test_missing_names_every_absent_metric():
    traced = {"correct": True, "attempted": 1, "metrics": {}}
    full = bench_record.side_record([_run(1.0, 1.0)], traced, [1])
    record = {"sides": {"change": {"w1": full}}}
    assert bench_record.missing(record, BENCHMARK) == [("change", "w2", "speed"),
                                                       ("change", "w2", "cost")]
    del full["metrics"]["cost"]
    record["sides"]["change"]["w2"] = full
    assert bench_record.missing(record, BENCHMARK) == [("change", "w1", "cost"),
                                                       ("change", "w2", "cost")]
