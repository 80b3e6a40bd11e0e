"""`tools/ab_bench.py`'s report arithmetic on synthetic pairs of runs: the
split of a `peak_rss_mb` change into the benchmark's per-task records
and the program's remainder, the RSS headroom, the flag, and the verdict
on each metric."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def _tool():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(rss_mb, tasks):
    metrics = {m["name"]: {"value": 1.0} for m in METRICS}
    metrics["peak_rss_mb"] = {"value": rss_mb}
    return {"metrics": metrics, "timed_tasks": tasks, "failed": 0}


def _pairs(parent, change):
    """Three pairs of runs whose medians are the given (rss_mb, tasks)."""
    return [(_run(parent[0] + d, parent[1] + t), _run(change[0] + d, change[1] + t))
            for d, t in ((-0.5, -100), (0, 0), (0.5, 100))]


def test_headroom_is_the_ratio_at_which_the_records_reach_the_bound():
    tool = _tool()
    # 25.49 MB over 23,580 tasks: 10% of it is 2,672,824 B, or 9,719 records
    ratio = tool._rss_headroom(25.49, 23580, 0.1)
    assert ratio == pytest.approx(1 + 0.1 * 25.49 * 2**20 / (23580 * tool.RECORD_BYTES))
    assert ratio == pytest.approx(1.412, abs=0.001)
    # at that ratio the added records are the bound's share of the peak
    added = (ratio - 1) * 23580 * tool.RECORD_BYTES / 2**20
    assert added == pytest.approx(0.1 * 25.49)
    # twice the tasks in the same peak leave half the headroom above 1
    assert tool._rss_headroom(25.49, 2 * 23580, 0.1) - 1 == pytest.approx((ratio - 1) / 2)


def test_the_report_splits_the_rss_change_and_flags_a_rise_near_the_bound():
    tool = _tool()
    extra = 4000  # timed tasks the change adds: 1.05 MB of records
    records = extra * tool.RECORD_BYTES / 2**20
    quiet = tool._report("w", _pairs((20.0, 10000), (20.0 + records + 0.1, 10000 + extra)), METRICS)
    text = "\n".join(quiet)
    assert f"records {records:+.2f} MB and the program +0.10 MB" in text
    headroom = 1 + 0.1 * 20.0 * 2**20 / (10000 * tool.RECORD_BYTES)
    assert f"bound (10%) at {headroom:.2f}x the parent's throughput" in text
    assert "FLAG" not in text  # +5.8%, under 80% of the bound
    # +8.5% is above 80% of the 10% bound, whatever its cause
    loud = tool._report("w", _pairs((20.0, 10000), (21.7, 10000)), METRICS)
    assert loud[-2] == "  FLAG: peak_rss_mb rose +8.5%, more than 80% of its bound"
    assert loud[-1] == "  failed operations: parent 0, change 0"


def _verdict(tool, parent, change, lower_better, bound):
    """`_verdict` given the pairs won and the quartiles, as `_report` gives them."""
    won = sum((c < p) if lower_better else (c > p) for p, c in zip(parent, change))
    quartiles = tool._quartiles(parent), tool._quartiles(change)
    return tool._verdict(parent, change, won, *quartiles, lower_better, bound)


# ten parent runs of a throughput (higher is better): median 104.5, q1-q3 101.75-107.25
STEADY = [100.0 + k for k in range(10)]


def test_a_gain_needs_nine_pairs_in_ten_and_medians_apart_by_the_parent_spread():
    tool = _tool()
    assert _verdict(tool, STEADY, [v + 20 for v in STEADY], False, 0.24) == "gain"
    # nine of ten pairs won; the lost pair is a tie, which counts for neither side
    nine = [v + 20 for v in STEADY[:9]] + [STEADY[9]]
    assert _verdict(tool, STEADY, nine, False, 0.24) == "gain"
    eight = [v + 20 for v in STEADY[:8]] + STEADY[8:]
    assert _verdict(tool, STEADY, eight, False, 0.24) == "within"
    # every pair won, but the medians lie 5 apart and the parent's q1-q3 is 5.5 wide
    assert _verdict(tool, STEADY, [v + 5 for v in STEADY], False, 0.24) == "within"
    assert _verdict(tool, STEADY, [v + 6 for v in STEADY], False, 0.24) == "gain"
    # lower is better: the same runs read the other way
    assert _verdict(tool, STEADY, [v - 20 for v in STEADY], True, 0.24) == "gain"
    assert _verdict(tool, STEADY, [v + 20 for v in STEADY], True, 0.24) == "within"


def test_worse_is_a_median_past_the_bound():
    tool = _tool()
    assert _verdict(tool, STEADY, [v - 26 for v in STEADY], False, 0.24) == "worse"  # -24.9%
    assert _verdict(tool, STEADY, [v - 25 for v in STEADY], False, 0.24) == "within"  # -23.9%
    assert _verdict(tool, STEADY, [v + 26 for v in STEADY], True, 0.24) == "worse"


def test_unresolved_is_a_parent_spread_wider_than_the_bound():
    tool = _tool()
    # set-up seconds (lower is better): median 0.1, q1-q3 0.082-0.118, wider than 25%
    parent = [0.07 + 0.006 * k for k in range(11)]
    change = list(reversed(parent))
    assert _verdict(tool, parent, change, True, 0.25) == "unresolved"
    assert _verdict(tool, parent, change, True, 0.5) == "within"
    # every change run (0.065-0.069) is better than every parent run, but the
    # medians lie 0.033 apart, less than the parent's q1-q3: resolved, no gain
    faster = [0.065 + 0.0004 * k for k in range(11)]
    assert _verdict(tool, parent, faster, True, 0.25) == "within"
    # a median worse by more than the bound is worse, however wide the spread
    assert _verdict(tool, parent, [v * 1.3 for v in parent], True, 0.25) == "worse"


def test_the_report_gives_each_metric_its_verdict():
    tool = _tool()
    lines = tool._report("w", _pairs((20.0, 10000), (21.7, 10000)), METRICS)
    assert lines[1].endswith(" verdict")
    verdicts = {line.split()[0]: line.split()[-1] for line in lines[2:2 + len(METRICS)]}
    # three pairs: every other metric ties in every pair; peak_rss_mb rose 8.5%
    assert verdicts == {m["name"]: "within" for m in METRICS}
    worse = tool._report("w", _pairs((20.0, 10000), (22.2, 10000)), METRICS)
    assert worse[2 + [m["name"] for m in METRICS].index("peak_rss_mb")].endswith(" worse")
