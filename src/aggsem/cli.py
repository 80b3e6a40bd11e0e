"""Command-line front end.

Subcommands: parse, models, check, kk, wf, compare, analyze, verify.
Exit codes: 0 success, 1 semantic failure (a false check, verification
mismatches), 2 usage or input-syntax errors, 3 capability errors (an
operation the selected semantics does not support, or inputs beyond the
exhaustive-size caps).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import combinations
from typing import Sequence

from . import fixpoints, oracle
from .errors import (
    AggsemError,
    CapabilityError,
    ParseError,
    TooLargeError,
    UniverseMismatchError,
    check_universe_size,
)
from .interp import Interpretation
from .syntax import Program, parse_interpretation, parse_program
from .ternary import MAX_ANALYZE_ATOMS, Analysis, SemanticsId, is_convex

EXIT_OK = 0
EXIT_SEMANTIC_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3

DEFAULT_SEMANTICS = "ult"


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _atom_cap(text: str) -> int:
    """--max-atoms: a count of atoms, never negative."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"a universe-size cap is at least 0, not {cap}")
    return cap


def _semantics_list(raw: str) -> list[SemanticsId]:
    return [SemanticsId.from_tag(part.strip()) for part in raw.split(",") if part.strip()]


def _model_atoms(model: Interpretation) -> list[str]:
    return list(model.sorted_atoms)


def _format_models(models: list[Interpretation]) -> str:
    return " ".join(map(str, models)) if models else "(none)"


def emit_json(result: dict, out=None) -> None:
    """Serialize with stable (insertion) key order, newline terminated."""
    print(json.dumps(result, separators=(", ", ": ")), file=out or sys.stdout)


@functools.cache  # built once per process: parse_args does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggsem",
        description=(
            "Stable, Kripke-Kleene and well-founded semantics for ground "
            "aggregate programs under selectable ternary satisfaction relations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help: str, semantics_default: str | None = DEFAULT_SEMANTICS):
        """A subcommand; every one but parse (semantics_default None) takes
        --semantics and --max-atoms."""
        p = sub.add_parser(name, help=help)
        p.add_argument("input", help="program file, or '-' for standard input")
        if semantics_default is not None:
            p.add_argument(
                "--semantics",
                default=semantics_default,
                help=f"comma-separated semantics tags (default: {semantics_default})",
            )
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if semantics_default is not None:
            p.add_argument(
                "--max-atoms",
                type=_atom_cap,
                default=fixpoints.DEFAULT_MAX_ATOMS,
                metavar="N",
                help="universe-size cap (default 20)",
            )
        return p

    add_command("parse", "parse a program and pretty-print it", None)
    add_command("models", "enumerate stable models")
    check = add_command("check", "check whether a model is stable")
    check.add_argument("--model", required=True, help="comma-separated atom list")
    add_command("kk", "Kripke-Kleene fixpoint")
    add_command("wf", "well-founded fixpoint")
    add_command("compare", "stable models side by side per semantics", "ult,ultimate")
    add_command(
        "analyze",
        "convexity, well-behavedness and precision reports",
        # every tag but gl, which rejects the aggregates analyze is about
        ",".join(s.value for s in SemanticsId if s.handles_aggregates),
    )
    verify = add_command("verify", "cross-check against brute-force oracles")
    verify.add_argument(
        "--seed", type=int, default=0, metavar="N", help="seed of the pair sampling"
    )
    return parser


def _cmd_parse(args, program: Program) -> int:
    if args.json:
        emit_json(
            {
                "command": "parse",
                "atoms": list(program.universe),
                "rules": len(program.rules),
                "program": str(program),
            }
        )
    else:
        print(str(program))
    return EXIT_OK


def _cmd_models(args, program: Program, sems: list[SemanticsId]) -> int:
    """models and compare: the stable models under each semantics."""
    results = {
        sem.value: fixpoints.stable_enumerate(sem, program, args.max_atoms) for sem in sems
    }
    single = args.command == "models" and len(sems) == 1
    if args.json:
        payload: dict = {"command": args.command, "semantics": [s.value for s in sems]}
        if single:
            payload["models"] = [_model_atoms(m) for m in results[sems[0].value]]
        else:
            payload["results"] = {
                tag: [_model_atoms(m) for m in models] for tag, models in results.items()
            }
        emit_json(payload)
    elif single:
        for model in results[sems[0].value]:
            print(model)
    else:
        width = 0  # compare prints a table, models one "tag:" line per semantics
        if args.command == "compare":
            width = max(len("semantics"), *(len(tag) for tag in results))
            print(f"{'semantics'.ljust(width)}  stable models")
        for tag, models in results.items():
            label = tag.ljust(width) + " " if width else tag + ":"
            print(f"{label} {_format_models(models)}")
    return EXIT_OK


def _cmd_check(args, program: Program, sems: list[SemanticsId]) -> int:
    model = parse_interpretation(args.model, program.universe)
    verdicts = {sem.value: fixpoints.stable_check(sem, program, model) for sem in sems}
    if args.json:
        emit_json(
            {
                "command": "check",
                "semantics": [s.value for s in sems],
                "model": _model_atoms(model),
                "stable": verdicts if len(sems) > 1 else verdicts[sems[0].value],
            }
        )
    else:
        for tag, verdict in verdicts.items():
            print(f"{tag}: {model} is {'stable' if verdict else 'not stable'}")
    return EXIT_OK if all(verdicts.values()) else EXIT_SEMANTIC_FAILURE


def _cmd_fixpoint(args, program: Program, sems: list[SemanticsId]) -> int:
    """kk and wf: one line, or one JSON object, per semantics."""
    for sem in sems:
        rounds = None
        if args.command == "kk":
            pair = fixpoints.kripke_kleene(sem, program)
        else:
            result = fixpoints.well_founded(sem, program)
            pair, rounds = result.pair, result.iterations
        if args.json:
            payload = {
                "command": args.command,
                "semantics": [sem.value],
                args.command: {
                    "lower": _model_atoms(pair.lower),
                    "upper": _model_atoms(pair.upper),
                },
            }
            if rounds is not None:
                payload["iterations"] = rounds
            emit_json(payload)
        else:
            line = f"{sem.value}: lower {pair.lower} upper {pair.upper}"
            print(line if rounds is None else f"{line} ({rounds} rounds)")
    return EXIT_OK


def _cmd_analyze(args, program: Program, sems: list[SemanticsId]) -> int:
    convexity = {str(atom): is_convex(atom) for atom in program.aggregate_atoms()}
    # one table per relation, shared by its well-behavedness and precision checks
    analysis = Analysis(program, min(args.max_atoms, MAX_ANALYZE_ATOMS))
    behaved = {}
    for sem in sems:
        report = analysis.well_behaved(sem)
        entry: dict = {"holds": report.holds}
        if report.counterexample is not None:
            entry["counterexample"] = str(report.counterexample)
        behaved[sem.value] = entry
    comparable = [s for s in sems if s.is_elementwise]
    precision = [
        {"first": a.value, "second": b.value, "order": analysis.precision(a, b).order.value}
        for a, b in combinations(comparable, 2)
    ]
    if args.json:
        emit_json(
            {
                "command": "analyze",
                "semantics": [s.value for s in sems],
                "report": {
                    "convex": convexity,
                    "well_behaved": behaved,
                    "precision": precision,
                },
            }
        )
    else:
        for atom, convex in convexity.items():
            print(f"convex: {atom}: {'yes' if convex else 'no'}")
        for tag, entry in behaved.items():
            line = f"well-behaved: {tag}: {'yes' if entry['holds'] else 'no'}"
            if "counterexample" in entry:
                line += f" ({entry['counterexample']})"
            print(line)
        for row in precision:
            print(f"precision: {row['first']} vs {row['second']}: {row['order']}")
    return EXIT_OK


def _cmd_verify(args, program: Program, sems: list[SemanticsId]) -> int:
    report = oracle.verify_program(program, sems, seed=args.seed, max_atoms=args.max_atoms)
    if args.json:
        emit_json(
            {
                "command": "verify",
                "semantics": [s.value for s in sems],
                "report": {
                    "checked": report.checked,
                    "skipped": report.skipped,
                    "mismatches": [
                        {"input": d, "main": m, "oracle": o} for d, m, o in report.mismatches
                    ],
                    "stable": {
                        tag: [_model_atoms(m) for m in models]
                        for tag, models in report.stable_models.items()
                    },
                },
            }
        )
    else:
        print(f"checked: {report.checked}")
        if report.skipped:
            print(f"skipped: {report.skipped} (oracle bounds or 64-bit overflow)")
        for tag, models in report.stable_models.items():
            print(f"{tag}: {_format_models(models)}")
        for descriptor, main, reference in report.mismatches:
            print(f"MISMATCH {descriptor}: main={main} oracle={reference}")
        print("ok" if report.ok else f"{len(report.mismatches)} mismatches")
    return EXIT_OK if report.ok else EXIT_SEMANTIC_FAILURE


_COMMANDS = {
    "models": _cmd_models,
    "check": _cmd_check,
    "kk": _cmd_fixpoint,
    "wf": _cmd_fixpoint,
    "compare": _cmd_models,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = _read_input(args.input)
    except OSError as error:
        print(f"aggsem: {error}", file=sys.stderr)
        return EXIT_USAGE
    try:
        program = parse_program(text)
        if args.command == "parse":
            return _cmd_parse(args, program)
        sems = _semantics_list(args.semantics)
        if not sems:
            print("aggsem: --semantics names no semantics", file=sys.stderr)
            return EXIT_USAGE
        repeated = [sem for i, sem in enumerate(sems) if sem in sems[:i]]
        if repeated:
            print(f"aggsem: --semantics names {repeated[0]} twice", file=sys.stderr)
            return EXIT_USAGE
        check_universe_size(len(program.universe), args.max_atoms)
        return _COMMANDS[args.command](args, program, sems)
    except (ParseError, UniverseMismatchError) as error:
        print(f"aggsem: {error}", file=sys.stderr)
        return EXIT_USAGE
    except (CapabilityError, TooLargeError) as error:
        print(f"aggsem: {error}", file=sys.stderr)
        return EXIT_CAPABILITY
    except AggsemError as error:
        print(f"aggsem: {error}", file=sys.stderr)
        return EXIT_SEMANTIC_FAILURE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
