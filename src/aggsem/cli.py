"""Command-line front end.

Subcommands: parse, models, check, kk, wf, compare, analyze, verify.
Exit codes: 0 success, 1 semantic failure (a false check, verification
mismatches), 2 usage or input-syntax errors, 3 capability errors (an
operation the selected semantics does not support, or inputs beyond the
exhaustive-size caps).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import fixpoints, oracle
from .errors import AggsemError, CapabilityError, ParseError, TooLargeError, UniverseMismatchError
from .interp import Interpretation
from .syntax import Program, parse_interpretation, parse_program
from .ternary import (
    SemanticsId,
    check_well_behaved,
    compare_precision,
    is_convex,
)

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


def _semantics_list(raw: str) -> list[SemanticsId]:
    return [SemanticsId.from_tag(part.strip()) for part in raw.split(",") if part.strip()]


def _model_atoms(model: Interpretation) -> list[str]:
    return list(model.sorted_atoms)


def _format_model(model: Interpretation) -> str:
    return "{" + ", ".join(model.sorted_atoms) + "}"


def _format_models(models: list[Interpretation]) -> str:
    return " ".join(_format_model(m) for m in models) if models else "(none)"


def emit_json(result: dict, out=None) -> None:
    """Serialize with stable (insertion) key order, newline terminated."""
    print(json.dumps(result, separators=(", ", ": ")), file=out or sys.stdout)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggsem",
        description=(
            "Stable, Kripke-Kleene and well-founded semantics for ground "
            "aggregate programs under selectable ternary satisfaction relations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, semantics_default: str | None = DEFAULT_SEMANTICS):
        p.add_argument("input", help="program file, or '-' for standard input")
        if semantics_default is not None:
            p.add_argument(
                "--semantics",
                default=semantics_default,
                help=f"comma-separated semantics tags (default: {semantics_default})",
            )
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument(
            "--max-atoms",
            type=int,
            default=fixpoints.DEFAULT_MAX_ATOMS,
            metavar="N",
            help="universe-size cap for every command but parse (default 20)",
        )
        p.add_argument("--seed", type=int, default=0, metavar="N", help="random seed")

    add_common(sub.add_parser("parse", help="parse a program and pretty-print it"), None)
    add_common(sub.add_parser("models", help="enumerate stable models"))
    check = sub.add_parser("check", help="check whether a model is stable")
    add_common(check)
    check.add_argument("--model", required=True, help="comma-separated atom list")
    add_common(sub.add_parser("kk", help="Kripke-Kleene fixpoint"))
    add_common(sub.add_parser("wf", help="well-founded fixpoint"))
    add_common(
        sub.add_parser("compare", help="stable models side by side per semantics"),
        "ult,ultimate",
    )
    add_common(
        sub.add_parser(
            "analyze",
            help="convexity, well-behavedness and precision reports",
        ),
        # every tag but gl, which rejects the aggregates analyze is about
        ",".join(s.value for s in SemanticsId if s is not SemanticsId.GL),
    )
    add_common(sub.add_parser("verify", help="cross-check against brute-force oracles"))
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


def _cmd_models(args, program: Program) -> int:
    sems = _semantics_list(args.semantics)
    results = {
        sem.value: fixpoints.stable_enumerate(sem, program, args.max_atoms) for sem in sems
    }
    if args.json:
        payload: dict = {"command": "models", "semantics": [s.value for s in sems]}
        if len(sems) == 1:
            payload["models"] = [_model_atoms(m) for m in results[sems[0].value]]
        else:
            payload["results"] = {
                tag: [_model_atoms(m) for m in models] for tag, models in results.items()
            }
        emit_json(payload)
    elif len(sems) == 1:
        for model in results[sems[0].value]:
            print(_format_model(model))
    else:
        for tag, models in results.items():
            print(f"{tag}: {_format_models(models)}")
    return EXIT_OK


def _cmd_check(args, program: Program) -> int:
    sems = _semantics_list(args.semantics)
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
            print(f"{tag}: {_format_model(model)} is {'stable' if verdict else 'not stable'}")
    return EXIT_OK if all(verdicts.values()) else EXIT_SEMANTIC_FAILURE


def _pair_payload(lower: Interpretation, upper: Interpretation) -> dict:
    return {"lower": _model_atoms(lower), "upper": _model_atoms(upper)}


def _cmd_kk(args, program: Program) -> int:
    sems = _semantics_list(args.semantics)
    for sem in sems:
        pair = fixpoints.kripke_kleene(sem, program)
        if args.json:
            emit_json(
                {
                    "command": "kk",
                    "semantics": [sem.value],
                    "kk": _pair_payload(pair.lower, pair.upper),
                }
            )
        else:
            print(f"{sem.value}: lower {_format_model(pair.lower)} upper {_format_model(pair.upper)}")
    return EXIT_OK


def _cmd_wf(args, program: Program) -> int:
    sems = _semantics_list(args.semantics)
    for sem in sems:
        result = fixpoints.well_founded(sem, program)
        if args.json:
            emit_json(
                {
                    "command": "wf",
                    "semantics": [sem.value],
                    "wf": _pair_payload(result.pair.lower, result.pair.upper),
                    "iterations": result.iterations,
                }
            )
        else:
            print(
                f"{sem.value}: lower {_format_model(result.pair.lower)} "
                f"upper {_format_model(result.pair.upper)} "
                f"({result.iterations} rounds)"
            )
    return EXIT_OK


def _cmd_compare(args, program: Program) -> int:
    sems = _semantics_list(args.semantics)
    results = {
        sem.value: fixpoints.stable_enumerate(sem, program, args.max_atoms) for sem in sems
    }
    if args.json:
        emit_json(
            {
                "command": "compare",
                "semantics": [s.value for s in sems],
                "results": {
                    tag: [_model_atoms(m) for m in models] for tag, models in results.items()
                },
            }
        )
    else:
        width = max(len("semantics"), *(len(tag) for tag in results))
        print(f"{'semantics'.ljust(width)}  stable models")
        for tag, models in results.items():
            print(f"{tag.ljust(width)}  {_format_models(models)}")
    return EXIT_OK


def _cmd_analyze(args, program: Program) -> int:
    sems = _semantics_list(args.semantics)
    convexity = {str(atom): is_convex(atom) for atom in program.aggregate_atoms()}
    behaved = {}
    for sem in sems:
        report = check_well_behaved(sem, program, max_universe=min(args.max_atoms, 8))
        entry: dict = {"holds": report.holds}
        if report.counterexample is not None:
            entry["counterexample"] = str(report.counterexample)
        behaved[sem.value] = entry
    precision = []
    comparable = [s for s in sems if s is not SemanticsId.ULTIMATE]
    for i, sem_a in enumerate(comparable):
        for sem_b in comparable[i + 1 :]:
            result = compare_precision(sem_a, sem_b, program, max_universe=min(args.max_atoms, 8))
            precision.append(
                {"first": sem_a.value, "second": sem_b.value, "order": result.order.value}
            )
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


def _cmd_verify(args, program: Program) -> int:
    sems = _semantics_list(args.semantics)
    report = oracle.verify_program(program, sems, seed=args.seed)
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
            print(f"skipped: {report.skipped} (oracle enumeration bounds)")
        for tag, models in report.stable_models.items():
            print(f"{tag}: {_format_models(models)}")
        for descriptor, main, reference in report.mismatches:
            print(f"MISMATCH {descriptor}: main={main} oracle={reference}")
        print("ok" if report.ok else f"{len(report.mismatches)} mismatches")
    return EXIT_OK if report.ok else EXIT_SEMANTIC_FAILURE


_COMMANDS = {
    "parse": _cmd_parse,
    "models": _cmd_models,
    "check": _cmd_check,
    "kk": _cmd_kk,
    "wf": _cmd_wf,
    "compare": _cmd_compare,
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
        default_sems = getattr(args, "semantics", None)
        if default_sems is not None:
            _semantics_list(default_sems)  # validate tags before dispatch
        if args.command != "parse" and len(program.universe) > args.max_atoms:
            raise TooLargeError(
                f"universe of {len(program.universe)} atoms exceeds bound {args.max_atoms}"
            )
        return _COMMANDS[args.command](args, program)
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
