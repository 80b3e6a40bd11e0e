"""`tools/ab_rounds.py`: paired rounds of one workload in two checkouts, here
the same checkout on both sides, and the arithmetic of its report."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_rounds.py"


def test_the_same_checkout_on_both_sides_runs_its_rounds():
    command = [sys.executable, str(TOOL), "--parent", str(ROOT), "--change", str(ROOT),
               "--workload", "fixpoint_sweep", "--seed", "1", "--rounds", "2"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "rounds: 2"
    assert lines[1].startswith("median round: parent ") and lines[2].startswith("parent/change: ")
    assert lines[3] in {f"rounds won by the change: {won}/2" for won in range(3)}


def test_the_report_reads_ratios_parent_over_change():
    spec = importlib.util.spec_from_file_location("ab_rounds", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    lines = tool._report([2.0, 3.0, 1.0, 4.0], [1.0, 3.0, 2.0, 2.0])
    assert lines == [
        "rounds: 4",
        "median round: parent 2.5000 s, change 2.0000 s",
        "parent/change: median 1.500 [q1 0.625 - q3 2.000]",
        "rounds won by the change: 2/4",
    ]
