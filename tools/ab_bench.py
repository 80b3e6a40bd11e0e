"""A/B comparison of two checkouts of aggsem on the benchmark.

    python3 tools/ab_bench.py --parent ../parent --change . --seeds 10 \
        --workload analyze_verify --workload stable_search --seconds 20

Both checkouts are byte-compiled first, since a run on cold bytecode
reads a higher `peak_rss_mb`.  For each seed 1..N and each workload,
`bench/run.py` runs once in each checkout, each with its own benchmark
code; the parent runs first on odd seeds and the change on even ones.
Every run must report `correct`.  The table gives, per workload and
end-to-end metric of `BENCHMARK.json`, the median and quartiles of each
side, the change in the median, and the pairs in which the change is
better (ties count for neither side), and the verdict (`_verdict`):
`gain`, `worse`, `unresolved` or `within`; then the median number of
timed tasks per run and the operations that failed on each side.

`peak_rss_mb` grows with the number of timed tasks, because `bench/run.py`
keeps a record per timed task (a span tuple and three floats, about
`RECORD_BYTES`).  So a faster change reads a higher peak even when the
program holds no more memory.  The line after the timed tasks splits the
change in the median `peak_rss_mb` into the part those records explain,
the change in median timed tasks times `RECORD_BYTES`, and the
remainder, which is the program's.  The next line gives the RSS
headroom: the throughput ratio at which the parent's median timed
tasks times `RECORD_BYTES` alone would raise the parent's median
`peak_rss_mb` by its bound in `BENCHMARK.json`, so a speed-up near that
ratio fails the bound with no change in the program's memory.  A change
whose median `peak_rss_mb` rose by more than `RSS_FLAG_SHARE` of the
bound is flagged.  `--out` also writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


# Bytes of peak RSS that the benchmark's records take per timed task.
# Allocating a span tuple and three floats per task for 5,000-40,000
# tasks grew `ru_maxrss` by 256-262 B per task, and the extra timed tasks
# of two ten-pair `stable_search` runs came to 261-297 B per task.
RECORD_BYTES = 275

# The share of the `peak_rss_mb` bound above which a rise is flagged.
RSS_FLAG_SHARE = 0.8


def _compile(checkout: Path) -> None:
    command = [sys.executable, "-m", "compileall", "-q", "src", "bench"]
    subprocess.run(command, cwd=checkout, check=True, stdout=subprocess.DEVNULL)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result line with the timed-task count."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: no output\n{done.stderr}")
    result = json.loads(lines[-1])
    info = next((json.loads(line[6:]) for line in lines if line.startswith("info: ")), {})
    result["timed_tasks"] = info.get("timed_tasks")
    if not result["correct"] or done.returncode:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: incorrect run\n{done.stdout}")
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _rss_headroom(parent_rss_mb: float, parent_tasks: float, bound: float) -> float:
    """The throughput ratio at which the records of the parent's timed
    tasks, grown in proportion, would alone raise its `peak_rss_mb` by
    `bound` (a share of it)."""
    return 1 + bound * parent_rss_mb * 2**20 / (parent_tasks * RECORD_BYTES)


def _verdict(parent: list[float], change: list[float], won: int, parent_q: tuple,
             change_q: tuple, lower_better: bool, bound: float) -> str:
    """The verdict on one metric from the runs of each side, listed pair
    by pair, the pairs the change `won`, each side's (q1, median, q3),
    and `bound`, the metric's bound in `BENCHMARK.json` as a share of
    the parent's median:

      gain        the change is better in at least 9/10 of the pairs,
                  and its median is better than the parent's by more
                  than the width of the parent's q1-q3
      worse       the change's median is worse than the parent's by
                  more than the bound
      unresolved  the parent's q1-q3 is wider than the bound, and not
                  every run of the change is better than every run of
                  the parent
      within      every other case
    """
    def better(a: float, b: float) -> bool:
        return a < b if lower_better else a > b

    (p1, p2, p3), c2 = parent_q, change_q[1]
    if 10 * won >= 9 * len(parent) and better(c2, p2) and abs(c2 - p2) > p3 - p1:
        return "gain"
    if better(p2, c2) and abs(c2 - p2) > bound * abs(p2):
        return "worse"
    if p3 - p1 > bound * abs(p2) and not all(better(c, p) for c in change for p in parent):
        return "unresolved"
    return "within"


def _report(workload: str, pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    lines = [f"{workload}: {len(pairs)} pairs"]
    lines.append(f"  {'metric':26} {'parent median [q1-q3]':>30} "
                 f"{'change median [q1-q3]':>30} {'diff':>8} {'won':>6} verdict")
    for metric in metrics:
        name, lower_better = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        won = sum((c < p) if lower_better else (c > p) for p, c in zip(parent, change))
        (p1, p2, p3), (c1, c2, c3) = _quartiles(parent), _quartiles(change)
        diff = (c2 - p2) / p2 * 100 if p2 else float("nan")
        verdict = _verdict(parent, change, won, (p1, p2, p3), (c1, c2, c3), lower_better,
                           metric["bound"])
        lines.append(
            f"  {name:26} {f'{p2:.4g} [{p1:.4g}-{p3:.4g}]':>30} "
            f"{f'{c2:.4g} [{c1:.4g}-{c3:.4g}]':>30} {diff:+7.1f}% {f'{won}/{len(pairs)}':>6} "
            f"{verdict}"
        )
    tasks = [statistics.median(run[side]["timed_tasks"] for run in pairs) for side in (0, 1)]
    failed = [sum(run[side]["failed"] for run in pairs) for side in (0, 1)]
    lines.append(f"  timed tasks per run (median): parent {tasks[0]:g}, change {tasks[1]:g}")
    rss = [statistics.median(run[side]["metrics"]["peak_rss_mb"]["value"] for run in pairs)
           for side in (0, 1)]
    records = (tasks[1] - tasks[0]) * RECORD_BYTES / 2**20
    lines.append(f"  peak_rss_mb change (medians): {rss[1] - rss[0]:+.2f} MB, of which timed-task "
                 f"records {records:+.2f} MB and the program {rss[1] - rss[0] - records:+.2f} MB")
    bound = next(m["bound"] for m in metrics if m["name"] == "peak_rss_mb")
    lines.append(f"  RSS headroom: the records alone reach the peak_rss_mb bound ({bound:.0%}) at "
                 f"{_rss_headroom(rss[0], tasks[0], bound):.2f}x the parent's throughput")
    rise = (rss[1] - rss[0]) / rss[0]
    if rise > RSS_FLAG_SHARE * bound:
        lines.append(f"  FLAG: peak_rss_mb rose {rise:+.1%}, more than {RSS_FLAG_SHARE:.0%} of "
                     f"its bound")
    lines.append(f"  failed operations: parent {failed[0]}, change {failed[1]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several")
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N (default 10)")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, help="write every run's result here as JSON")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        _compile(checkout)
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in args.workload}
    for seed in range(1, args.seeds + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in args.workload:
            done = {side: _run(checkouts[side], workload, seed, args.seconds) for side in order}
            runs[workload].append((done["parent"], done["change"]))
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{side} {done[side]['metrics']['throughput_tasks_per_kcu']['value']:.1f}"
                for side in order), file=sys.stderr, flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    for workload, pairs in runs.items():
        print("\n".join(_report(workload, pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
