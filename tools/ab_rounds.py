"""Paired rounds of one benchmark workload in two checkouts of aggsem.

    python3 tools/ab_rounds.py --parent ../parent --change . \
        --workload stable_search --seed 1 --rounds 40

One worker process runs per checkout.  Each imports the package from its
own checkout's `src/` and the workload from its `bench/workloads.py`,
writing no bytecode there, builds the workload from the seed, runs its
warm-up calls and one round whose answers the workload's own checks
must accept, and then runs one more round of the workload's calls per
request, answering with the round's wall-clock seconds.  The main
process asks the two workers in turn, the parent first in odd rounds
and the change first in even ones, so that both rounds of a pair run at
nearly the same speed of the machine: on a VM whose speed drifts by up
to 1.9x, single `bench/run.py` runs of the two checkouts cannot be
paired as closely.  It prints each side's median round time, the median and
quartiles of the per-round ratio parent time / change time (above 1:
the change is faster) and the rounds the change won.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _worker(checkout: Path, workload: str, seed: int) -> int:
    """Build and warm the workload of `checkout`, then run one round per
    line read from standard input and answer each with its seconds."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    replies, sys.stdout = sys.stdout, sys.stderr  # a task that prints cannot garble a reply
    import workloads

    built = workloads.WORKLOADS[workload](seed)
    for task in built.warmup_tasks():
        task.call()
    errors = built.check([task.call() for task in built.tasks])
    if errors:
        print(f"error: {checkout}: {errors[0]}", file=replies, flush=True)
        return 1
    print("ready", file=replies, flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        for task in built.tasks:
            task.call()
        print(time.perf_counter() - start, file=replies, flush=True)
    return 0


class _Side:
    """One worker process and the round times it has answered."""

    def __init__(self, checkout: Path, workload: str, seed: int):
        command = [sys.executable, "-B", str(Path(__file__).resolve()), "--worker",
                   str(checkout), "--workload", workload, "--seed", str(seed)]
        self.checkout = checkout
        self.process = subprocess.Popen(command, cwd=checkout, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []
        self._expect("ready")

    def _expect(self, word: str | None) -> str:
        line = self.process.stdout.readline().strip()
        if not line or line.startswith("error") or (word is not None and line != word):
            raise RuntimeError(f"{self.checkout}: worker answered {line or 'nothing'!r}")
        return line

    def round(self) -> None:
        self.process.stdin.write("round\n")
        self.process.stdin.flush()
        self.times.append(float(self._expect(None)))

    def close(self) -> None:
        if self.process.stdin and not self.process.stdin.closed:
            self.process.stdin.close()
        self.process.wait()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _report(parent: list[float], change: list[float]) -> list[str]:
    ratios = [p / c for p, c in zip(parent, change)]
    q1, median, q3 = _quartiles(ratios)
    won = sum(c < p for p, c in zip(parent, change))
    return [
        f"rounds: {len(ratios)}",
        f"median round: parent {statistics.median(parent):.4f} s, "
        f"change {statistics.median(change):.4f} s",
        f"parent/change: median {median:.3f} [q1 {q1:.3f} - q3 {q3:.3f}]",
        f"rounds won by the change: {won}/{len(ratios)}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        return _worker(args.worker.resolve(), args.workload, args.seed)
    if args.parent is None or args.change is None or args.rounds < 1:
        parser.error("--parent, --change and --rounds of at least 1 are required")

    sides = {}
    try:
        for name in ("parent", "change"):
            sides[name] = _Side(getattr(args, name).resolve(), args.workload, args.seed)
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for name in order:
                sides[name].round()
    finally:
        for side in sides.values():
            side.close()
    print("\n".join(_report(sides["parent"].times, sides["change"].times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
