"""`ternary.Analysis`, which shares one table per relation between the
well-behavedness and precision checks, against references evaluated
straight from `sat3` over `all_consistent_pairs`, and the number of
relation evaluations and table reads one `analyze` run makes."""

import dataclasses
import json
import random
from collections import Counter
from itertools import combinations

from aggsem import AggsemError, oracle, ternary
from aggsem.cli import run
from aggsem.eval2 import sat2_disjunction, sat2_element
from aggsem.interp import InterpretationPair, leq_precision
from aggsem.syntax import AggregateAtom, Program, Rule, combine_rules_per_head, parse_program
from aggsem.ternary import (
    Analysis,
    PrecisionOrder,
    SemanticsId,
    WellBehavedCounterexample,
    _formula_atoms,
    all_consistent_pairs,
    sat3,
    sat3_body,
)

from .conftest import PROGRAMS_DIR

HALF = 1 << 62  # two of these sum to 2^63, one past the largest int64
ELEMENTWISE = [s for s in SemanticsId if s is not SemanticsId.ULTIMATE]


def with_big_weights(program):
    """The program with every nonzero aggregate weight replaced by ±2^62."""

    def big(element):
        if isinstance(element, AggregateAtom):
            entries = tuple((((w > 0) - (w < 0)) * HALF, lit) for w, lit in element.entries)
            return dataclasses.replace(element, entries=entries)
        return element

    rules = tuple(Rule(rule.head, tuple(big(e) for e in rule.body)) for rule in program.rules)
    return Program(rules, program.universe)


def outcome(compute):
    """A value, or the type and message of the error computing it raised."""
    try:
        return compute()
    except AggsemError as error:
        return type(error).__name__, str(error)


class Reference:
    """Each relation evaluated with `sat3` (or, for ultimate, `sat3_body`
    on each head's disjunctive body) at most once per (formula, pair); an
    error is kept and raised again on every later read."""

    def __init__(self, program):
        self.program = program
        self.pairs = all_consistent_pairs(program.universe)
        # each pair's one-atom refinements: an undefined atom made true or false
        self.steps = [
            [
                refined
                for atom in pair.undefined_atoms()
                for refined in (
                    InterpretationPair(pair.lower.union((atom,)), pair.upper),
                    InterpretationPair(pair.lower, pair.upper.difference((atom,))),
                )
            ]
            for pair in self.pairs
        ]
        self.memo = {}

    def formulas(self, sem):
        if sem is SemanticsId.ULTIMATE:
            return [bodies for _, bodies in combine_rules_per_head(self.program).entries]
        return list(self.program.body_elements())

    def sat(self, sem, formulas, fi, pair):
        # keyed by values whose hashes are cached, to keep the reference quick
        key = sem.value, fi, pair.lower.atoms, pair.upper.atoms
        if key not in self.memo:
            try:
                if sem is SemanticsId.ULTIMATE:
                    self.memo[key] = sat3_body(sem, formulas[fi], pair)
                else:
                    self.memo[key] = sat3(sem, formulas[fi], pair)
            except AggsemError as error:
                self.memo[key] = error
        value = self.memo[key]
        if isinstance(value, AggsemError):
            raise value
        return value

    def well_behaved(self, sem):
        """holds and the counterexample's text: exact pairs first, then
        every one-atom refinement, then the least precise violating pair
        with its first violating refinement."""
        sat2 = sat2_disjunction if sem is SemanticsId.ULTIMATE else sat2_element
        formulas = self.formulas(sem)
        sat = lambda fi, pair: self.sat(sem, formulas, fi, pair)
        for fi, formula in enumerate(formulas):
            for pair in self.pairs:
                if pair.is_exact and sat(fi, pair) != sat2(formula, pair.lower):
                    return False, str(WellBehavedCounterexample("exact", formula, pair))
        violated = any(
            sat(fi, pair) and not all(sat(fi, refined) for refined in steps)
            for fi in range(len(formulas))
            for pair, steps in zip(self.pairs, self.steps)
        )
        if not violated:
            return True, None
        width = lambda pair: len(pair.undefined_atoms())
        for pair in sorted(self.pairs, key=width, reverse=True):
            for fi, formula in enumerate(formulas):
                if not sat(fi, pair):
                    continue
                for refined in self.pairs:
                    if refined != pair and leq_precision(pair, refined) and not sat(fi, refined):
                        witness = WellBehavedCounterexample("monotone", formula, pair, refined)
                        return False, str(witness)
        raise AssertionError("no witness")

    def precision(self, sem_a, sem_b):
        formulas = self.formulas(sem_a)
        only_a = only_b = None
        for fi, element in enumerate(formulas):
            for pair in self.pairs:
                a = self.sat(sem_a, formulas, fi, pair)
                b = self.sat(sem_b, formulas, fi, pair)
                if a and not b and only_a is None:
                    only_a = (element, pair)
                if b and not a and only_b is None:
                    only_b = (element, pair)
        order = {
            (True, True): PrecisionOrder.EQUAL,
            (True, False): PrecisionOrder.FIRST_LESS_PRECISE,
            (False, True): PrecisionOrder.SECOND_LESS_PRECISE,
            (False, False): PrecisionOrder.INCOMPARABLE,
        }[only_a is None, only_b is None]
        return order, only_a, only_b


def narrow_formula_programs(rng, count):
    """Seeded programs of five or six atoms in which every formula, a body
    element or a head's disjunction of bodies, mentions at most three
    atoms: each formula then has at most 27 restrictions of the 243 or
    729 consistent pairs, so the scans visit far fewer pairs than a fresh
    scan does."""
    found = []
    while len(found) < count:
        program = oracle.random_program(rng, max_atoms=6, max_rules=6, max_body=2)
        formulas = [*program.body_elements(), *(bodies for _, bodies in program.entries)]
        if len(program.universe) >= 5 and all(len(_formula_atoms(f)) <= 3 for f in formulas):
            found.append(program)
    return found


def test_shared_tables_match_fresh_references():
    rng = random.Random(9)
    programs = [oracle.random_program(rng, max_atoms=4, max_rules=3) for _ in range(150)]
    programs += narrow_formula_programs(random.Random(2), 16)
    seen = Counter()
    for program in programs:
        for variant in (program, with_big_weights(program)):
            analysis, reference = Analysis(variant), Reference(variant)
            for sem in SemanticsId:
                report = outcome(lambda: analysis.well_behaved(sem))
                if not isinstance(report, tuple):
                    counterexample = report.counterexample
                    report = report.holds, counterexample and str(counterexample)
                expected = outcome(lambda: reference.well_behaved(sem))
                assert report == expected, (str(variant), sem)
                seen[expected[0]] += 1
            for sem_a, sem_b in combinations(ELEMENTWISE, 2):
                result = outcome(lambda: analysis.precision(sem_a, sem_b))
                if not isinstance(result, tuple):
                    result = result.order, result.only_first, result.only_second
                expected = outcome(lambda: reference.precision(sem_a, sem_b))
                assert result == expected, (str(variant), sem_a, sem_b)
                seen[expected[0]] += 1
    # every outcome is reached: both answers, every order and both errors
    expected = {True, False, *PrecisionOrder, "ArithmeticOverflowError", "CapabilityError"}
    assert expected <= set(seen), seen


def test_analyze_evaluates_each_relation_once_per_element_and_pair(monkeypatch, capsys):
    calls = Counter()

    def counting_sat3(sem, element, pair):
        calls[SemanticsId.from_tag(sem), element, pair] += 1
        return sat3(sem, element, pair)

    monkeypatch.setattr(ternary, "sat3", counting_sat3)
    assert run(["analyze", str(PROGRAMS_DIR / "nonconvex_loop.lp")]) == 0
    assert "precision: mr vs flp: second <=p first" in capsys.readouterr().out
    assert {sem for sem, _, _ in calls} == set(ELEMENTWISE) - {SemanticsId.GL}
    assert max(calls.values()) == 1, calls.most_common(1)


# six atoms, each formula mentions at most three; mr and flp are not
# well-behaved on it, so their checks run the counterexample scan too
SIX_ATOMS = """
s :- sum{1:p, -1:q} >= 0.
q :- sum{1:s} > 0.
p :- sum{1:q} > 0.
a :- not b.
b :- not a.
c :- sum{1:a, -1:b, 1:s} >= 1.
"""


def test_each_scan_reads_each_restriction_once(monkeypatch, tmp_path, capsys):
    """One `analyze` run evaluates each relation at most once per
    (formula, pair), only at pairs that make every atom the formula does
    not mention false, and a well-behaved relation at every pair of each
    formula's own index.  The universe's pairs are indexed only for the
    counterexample scan, so a run in which every relation is well-behaved
    indexes no pair over all six atoms."""
    calls = Counter()
    indexed = []

    def counting(evaluate):
        def call(sem, formula, pair):
            calls[SemanticsId.from_tag(sem), formula, pair] += 1
            return evaluate(sem, formula, pair)

        return call

    def recording(init):
        def call(index, *args):
            init(index, *args)
            indexed.append(len(index.bits))

        return call

    monkeypatch.setattr(ternary, "sat3", counting(sat3))
    monkeypatch.setattr(ternary, "sat3_body", counting(sat3_body))
    monkeypatch.setattr(ternary._PairIndex, "__init__", recording(ternary._PairIndex.__init__))
    path = tmp_path / "six.lp"
    path.write_text(SIX_ATOMS, encoding="utf-8")
    assert run(["analyze", str(path), "--json"]) == 0
    behaved = json.loads(capsys.readouterr().out)["report"]["well_behaved"]
    evaluations, universe_indexed = calls.copy(), indexed.count(6)
    indexed.clear()
    well_behaved = [tag for tag, entry in behaved.items() if entry["holds"]]
    assert run(["analyze", str(path), "--semantics", ",".join(well_behaved)]) == 0
    capsys.readouterr()
    monkeypatch.undo()

    program = parse_program(SIX_ATOMS)
    assert len(program.universe) == 6 and sorted(set(behaved) - set(well_behaved)) == ["flp", "mr"]
    # mr and flp run the counterexample scan, which indexes the universe once
    assert universe_indexed == 1 and indexed and 6 not in indexed
    assert max(evaluations.values()) == 1, evaluations.most_common(1)
    assert {sem.value for sem, _, _ in evaluations} == set(behaved)
    for _, formula, pair in evaluations:
        assert pair.upper.atoms <= set(_formula_atoms(formula)), (formula, pair)
    for tag in well_behaved:
        sem = SemanticsId.from_tag(tag)
        formulas, _, _ = ternary._formulas_of(sem, program)
        expected = {}
        for formula in formulas:
            index = ternary._PairIndex(program.universe, _formula_atoms(formula))
            expected.update({(sem, formula, index.pair(pi)): 1 for pi in range(len(index.masks))})
        assert {key: n for key, n in evaluations.items() if key[0] is sem} == expected, tag
