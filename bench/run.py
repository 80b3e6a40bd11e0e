"""Benchmark of aggsem: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload stable_search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
One caller runs the workload's fixed list of calls (a round) in a
closed loop, one call at a time, in whole rounds until `--seconds` have
passed and at least MIN_TASKS calls were timed.  Every answer of the
first round is checked by the benchmark's own checkers, and every later
round must repeat it.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: set-up seconds and
task times in calibration units (see calib.py).  With `--trace 1` the
layer modules are wrapped (see spans.py) and the metrics are per-layer
counts and self times, for the set-up plus one average round.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLOCK_SECONDS = 0.1  # seconds of tasks between two calibration readings
UNIT_WINDOW_SECONDS = 0.25  # readings this close to a task give its unit
MIN_TASKS = 100  # so that ten samples lie beyond the 90th percentile
SETUP_PROBES = 8
WORKLOADS = ("stable_search", "fixpoint_sweep", "analyze_verify")  # as named in workloads.py


def _setup(workload: str, seed: int, tracer=None):
    """Import the package, build the workload's inputs and warm up; returns the workload."""
    import workloads

    if tracer is not None:
        tracer.install()
    built = workloads.WORKLOADS[workload](seed)
    for task in built.warmup_tasks():
        task.call()
    return built


def _probe_setup(args) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _units(readings, spans, half: float) -> list[float]:
    """Each task's calibration unit: the mean of the readings taken within
    `half` seconds of it, and always the last before and the first after it.

    The host switches between a fast and a slow state many times a second,
    so a mean over several nearby readings matches the speed a task ran at
    better than the two readings next to it do."""
    times = [t for t, _ in readings]
    units = []
    for t0, t1 in spans:
        lo = min(bisect.bisect_left(times, t0 - half), bisect.bisect_left(times, t0) - 1)
        hi = max(bisect.bisect_right(times, t1 + half), bisect.bisect_right(times, t1) + 1)
        units.append(statistics.fmean(s for _, s in readings[max(lo, 0):hi]))
    return units


def _timed_loop(tasks, seconds: float, tracer, min_tasks: int):
    import calib

    readings, spans = [calib.reading()], []
    first = [None] * len(tasks)
    errors: list[str] = []
    attempted = failed = rounds = 0
    start = block_start = time.perf_counter()
    while True:
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.begin_task(i)
            t0 = time.perf_counter()
            try:
                out = task.call()
            except Exception as error:  # a failed operation is counted, not fatal
                out = error
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_task()
            attempted += 1
            if isinstance(out, Exception):
                failed += 1
                if rounds == 0:
                    errors.append(f"{task.label}: failed with {out!r}")
            else:
                spans.append((t0, t1))
                if rounds == 0:
                    first[i] = out
                elif out != first[i]:
                    errors.append(f"{task.label}: round {rounds + 1} differs from round 1")
            if t1 - block_start >= BLOCK_SECONDS:
                readings.append(calib.reading())
                block_start = time.perf_counter()
        rounds += 1
        if time.perf_counter() - start >= seconds and attempted - failed >= min_tasks:
            break
    readings.append(calib.reading())
    raw_times = [t1 - t0 for t0, t1 in spans]
    units = _units(readings, spans, UNIT_WINDOW_SECONDS)
    return {"cu": [t / u for t, u in zip(raw_times, units)], "raw": raw_times,
            "readings": [s for _, s in readings], "first": first,
            "errors": errors, "attempted": attempted, "failed": failed, "rounds": rounds}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(loop, setup_times) -> dict:
    cu = loop["cu"]
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "task_p50_cu": _metric(_quantile(cu, 50), "cu"),
        "task_p90_cu": _metric(_quantile(cu, 90), "cu"),
        "throughput_tasks_per_kcu": _metric(1000 * len(cu) / sum(cu), "1/kcu"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _per_layer(setup: dict, end: dict, rounds: int, unit: float) -> dict:
    """The set-up's counts and self times plus those of one average round."""
    def once(group, key):
        return setup[group][key] + (end[group][key] - setup[group][key]) / rounds

    metrics = {}
    for key in sorted(end["counts"]):
        if key != "fixpoints.models_found":
            metrics[key] = _metric(once("counts", key), "count")
    tested = once("counts", "fixpoints.candidates_tested")
    found = once("counts", "fixpoints.models_found")
    metrics["fixpoints.models_per_candidate"] = _metric(found / tested if tested else 0.0, "ratio")
    for layer in end["seconds"]:
        if layer != "bench":
            metrics[f"{layer}.self_cu"] = _metric(once("seconds", layer) / unit, "cu")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "aggsem" / "__init__.py", ROOT / "programs") if not p.exists()]
    if missing:
        print(f"run.py: not a checkout of aggsem, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.setup_only:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    # Byte-compile first, so no run's set-up includes compiling the sources.
    for directory in (ROOT / "src" / "aggsem", BENCH):
        compileall.compile_dir(str(directory), quiet=1)
    # Half the set-up probes run before the timed loop and half after it, so
    # their median spans the host's slow and fast spells during the run.
    setup_times = [] if args.trace else [_probe_setup(args) for _ in range(SETUP_PROBES // 2)]

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    built = _setup(args.workload, args.seed, tracer)
    at_setup = tracer.snapshot() if tracer else None
    # a traced run reports no percentiles, so one round is enough
    loop = _timed_loop(built.tasks, args.seconds, tracer, 1 if tracer else MIN_TASKS)
    unit = statistics.median(loop["readings"])
    if tracer:
        at_end = tracer.snapshot()
        tracer.uninstall()
        metrics = _per_layer(at_setup, at_end, loop["rounds"], unit)
    else:
        setup_times += [_probe_setup(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics = _end_to_end(loop, setup_times)
    errors = list(loop["errors"])
    try:
        errors += built.check(loop["first"])
        if not built.check(built.plant(loop["first"])):
            errors.append("self-test: the checker accepted a planted wrong answer")
    except Exception as error:  # an answer the checkers cannot read is wrong
        errors.append(f"check failed: {error!r}")

    spread = statistics.quantiles(loop["readings"], n=4)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": loop["rounds"],
        "tasks_per_round": len(built.tasks), "timed_tasks": len(loop["cu"]),
        "calibration_ms": round(unit * 1000, 4),
        "calibration_iqr_share": round((spread[2] - spread[0]) / unit, 4),
        "calibration_readings": len(loop["readings"]),
        "task_p50_s": _quantile(loop["raw"], 50), "task_p90_s": _quantile(loop["raw"], 90),
        "task_p50_cu": _quantile(loop["cu"], 50), "task_p90_cu": _quantile(loop["cu"], 90),
        "setup_probes_s": setup_times,
    }
    for error in errors[:20]:
        print(f"error: {error}")
    print("info: " + json.dumps(info))
    result = {"correct": not errors, "attempted": loop["attempted"], "failed": loop["failed"],
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if tracer:
        tracer.dump(OUT / f"spans_{stem}.json", info)
    (OUT / f"result_{stem}.json").write_text(json.dumps({"info": info, "result": result}) + "\n",
                                             encoding="utf-8")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
