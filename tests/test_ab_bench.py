"""`tools/ab_bench.py`'s report arithmetic on synthetic pairs of runs: the
split of a `peak_rss_mb` change into the benchmark's per-task records
and the program's remainder, the RSS headroom, and the flag."""

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
