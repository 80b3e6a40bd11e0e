"""Outcome digests over a seeded corpus, to compare two checkouts.

    python3 tools/outcomes.py > change.txt
    (cd ../parent && python3 tools/outcomes.py) > parent.txt
    diff parent.txt change.txt

    python3 tools/outcomes.py --fingerprint > tests/data/outcomes.json

The corpus is `--count` programs drawn by
`oracle.random_program(Random(20261018), max_atoms=6, max_rules=9)`,
then `programs/*.lp`, each followed by its variant with every nonzero
aggregate weight replaced by ±2^62.  Each line is a program, a group and
the SHA-256 of the group's outcomes, where an outcome is a repr, or the
type and message of the error computing it.  The groups of `analyze`
are

  well_behaved  `Analysis.well_behaved` under each tag, with the
                counterexample text
  precision     `Analysis.precision` for each pair of element-wise tags
  cli           stdout, stderr and exit code of `aggsem analyze --json`
                under the default tags

One `Analysis` per program serves both of its groups, as in `analyze`.

`--fingerprint` prints, as JSON, the digests of the relations and
fixpoints over the first `FINGERPRINT_COUNT` seeded programs and the
shipped ones but `wide_aggregate_18.lp`, with their variants, which
`tests/test_outcomes.py` compares with the checked-in
`tests/data/outcomes.json`.  Each of these outcomes also holds the
number of interval expansions computing it took.  The groups are

  sat3              `sat3` of every body element under each element-wise
                    tag, and `sat3_body` of every head's bodies under
                    `ultimate`, at every consistent pair
  exact_bounds      `exact_bounds` of every aggregate atom at every
                    consistent pair
  stable_enumerate  `stable_enumerate` under each tag
  kripke_kleene     `kripke_kleene` under each tag
  well_founded      `well_founded` under each tag
  steps             `lower_step` and `upper_step` of the program under
                    each tag, at every consistent pair

The script imports `aggsem` from the `src` directory beside it, so it
measures the checkout it is in.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from aggsem import AggsemError, oracle  # noqa: E402
from aggsem.bounds import exact_bounds  # noqa: E402
from aggsem.cli import run  # noqa: E402
from aggsem.fixpoints import (  # noqa: E402
    kripke_kleene,
    lower_step,
    stable_enumerate,
    upper_step,
    well_founded,
)
from aggsem.interp import interval_expansion_count  # noqa: E402
from aggsem.syntax import AggregateAtom, Program, Rule, parse_program  # noqa: E402
from aggsem.ternary import Analysis, SemanticsId, all_consistent_pairs, sat3, sat3_body  # noqa: E402

HALF = 1 << 62  # two of these sum to 2^63, one past the largest int64
SEED = 20261018
FINGERPRINT_COUNT = 40
FINGERPRINT_SKIPS = ("wide_aggregate_18.lp",)  # 3^18 pairs


def with_big_weights(program: Program) -> Program:
    """The program with every nonzero aggregate weight replaced by ±2^62."""

    def big(element):
        if isinstance(element, AggregateAtom):
            entries = tuple((((w > 0) - (w < 0)) * HALF, lit) for w, lit in element.entries)
            return dataclasses.replace(element, entries=entries)
        return element

    rules = tuple(Rule(rule.head, tuple(big(e) for e in rule.body)) for rule in program.rules)
    return Program(rules, program.universe)


def corpus(count: int, skips: tuple[str, ...] = ()) -> list[tuple[str, str]]:
    """(name, program text) of the seeded programs, then the shipped
    ones but `skips`, each followed by its ±2^62 variant."""
    rng = random.Random(SEED)
    sources = [(f"random-{k:04d}", str(oracle.random_program(rng, max_atoms=6, max_rules=9)))
               for k in range(count)]
    sources += [(path.name, path.read_text(encoding="utf-8"))
                for path in sorted((ROOT / "programs").glob("*.lp")) if path.name not in skips]
    programs = []
    for name, text in sources:
        programs.append((name, text))
        programs.append((f"{name}+big", str(with_big_weights(parse_program(text)))))
    return programs


def outcome(compute) -> str:
    try:
        return repr(compute())
    except AggsemError as error:
        return repr((type(error).__name__, str(error)))


def counted(compute) -> str:
    """The outcome and the number of interval expansions it took."""
    before = interval_expansion_count()
    result = outcome(compute)
    return f"{result} {interval_expansion_count() - before}"


def well_behaved(analysis: Analysis, sem: SemanticsId):
    report = analysis.well_behaved(sem)
    return report.holds, report.counterexample and str(report.counterexample), report


def cli(text: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["analyze", "-", "--json"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def analyze_outcomes(text: str) -> dict[str, list[str]]:
    outcomes: dict[str, list[str]] = {"well_behaved": [], "precision": [], "cli": []}
    program = parse_program(text)
    analysis = Analysis(program)
    for sem in SemanticsId:
        outcomes["well_behaved"].append(outcome(lambda: well_behaved(analysis, sem)))
    elementwise = [s for s in SemanticsId if s.is_elementwise]
    for a, b in combinations(elementwise, 2):
        outcomes["precision"].append(outcome(lambda: analysis.precision(a, b)))
    outcomes["cli"].append(repr(cli(text)))
    return outcomes


def relation_outcomes(text: str) -> dict[str, list[str]]:
    groups = ("sat3", "exact_bounds", "stable_enumerate", "kripke_kleene", "well_founded", "steps")
    outcomes: dict[str, list[str]] = {group: [] for group in groups}
    program = parse_program(text)
    pairs = all_consistent_pairs(program.universe)
    for sem in SemanticsId:
        if sem.is_elementwise:
            for element in program.body_elements():
                outcomes["sat3"] += [counted(lambda: sat3(sem, element, p)) for p in pairs]
        else:
            for _, bodies in program.entries:
                outcomes["sat3"] += [counted(lambda: sat3_body(sem, bodies, p)) for p in pairs]
    for atom in program.aggregate_atoms():
        outcomes["exact_bounds"] += [counted(lambda: exact_bounds(atom, p)) for p in pairs]
    for sem in SemanticsId:
        for function in (stable_enumerate, kripke_kleene, well_founded):
            outcomes[function.__name__].append(counted(lambda: function(sem, program)))
    for sem in SemanticsId:
        for step in (lower_step, upper_step):
            outcomes["steps"] += [counted(lambda: step(sem, program, p)) for p in pairs]
    return outcomes


def digests(outcomes: dict[str, list[str]]) -> dict[str, str]:
    return {
        group: hashlib.sha256("\n".join(values).encode()).hexdigest()
        for group, values in outcomes.items()
    }


def fingerprint() -> dict[str, dict[str, str]]:
    """Per program of the fingerprint corpus, the digest of each group of
    `relation_outcomes`."""
    programs = corpus(FINGERPRINT_COUNT, FINGERPRINT_SKIPS)
    return {name: digests(relation_outcomes(text)) for name, text in programs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=300,
                        help="seeded programs of the analyze groups (default 300)")
    parser.add_argument("--fingerprint", action="store_true",
                        help="print the relation and fixpoint digests as JSON")
    args = parser.parse_args(argv)
    if args.fingerprint:
        print(json.dumps(fingerprint(), indent=1, sort_keys=True))
        return 0
    for name, text in corpus(args.count):
        for group, digest in digests(analyze_outcomes(text)).items():
            print(f"{name} {group} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
