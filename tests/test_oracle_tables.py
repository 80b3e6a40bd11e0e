"""`verify_program` over every consistent pair reads its references from
tables that one fold of the whole interpretations fills per call.  The
tables agree with the public per-pair references, every pair is still
checked, the per-pair walks are gone from all-pairs runs and stay in
sampled ones, and the command's output is the one pinned in
`data/verify_golden.json`."""

import io
import json
import random
import sys
from functools import partial
from pathlib import Path

import pytest

from aggsem import oracle, parse_program
from aggsem.cli import run
from aggsem.oracle import (
    brute_bnd_truth,
    brute_bounds,
    brute_sat_mr,
    brute_sat_ult,
    brute_sat_ult_upper,
    random_program,
    ultimate_operator_bruteforce,
    verify_program,
)
from aggsem.ternary import all_consistent_pairs

from .conftest import PROGRAMS_DIR
from .test_analysis import SIX_ATOMS, outcome, with_big_weights

GOLDEN = Path(__file__).resolve().parent / "data" / "verify_golden.json"
SEVEN_ATOMS = SIX_ATOMS + "d :- not c.\n"


def _tables(program):
    """The references of an all-pairs `verify_program` call on `program`."""
    pairs = oracle._PairTables(program.universe)
    atoms = [
        (atom, oracle._AtomTables(atom, oracle._kept(partial(oracle._brute_holds, atom)), pairs))
        for atom in program.aggregate_atoms()
    ]
    consequences = oracle._kept(partial(oracle._consequences, program))
    return atoms, oracle._MostPreciseTable(consequences, program.universe, pairs).lower


def test_tables_match_the_public_references():
    """At every consistent pair: same value, or the same error."""
    rng = random.Random(20261019)
    programs = [random_program(rng, max_atoms=6, max_rules=7) for _ in range(40)]
    assert max(len(p.universe) for p in programs) == 6
    seen = set()
    for program in programs:
        for variant in (program, with_big_weights(program)):
            atoms, lower = _tables(variant)
            for p in all_consistent_pairs(variant.universe):
                for atom, tables in atoms:
                    assert tables.sat_ult(p) == brute_sat_ult(atom, p), (str(atom), str(p))
                    assert tables.sat_ult_upper(p) == brute_sat_ult_upper(atom, p)
                    assert tables.sat_mr(p) == brute_sat_mr(atom, p), (str(atom), str(p))
                    assert tables.bnd_truth(p) == brute_bnd_truth(atom, p), (str(atom), str(p))
                    assert tables.bounds(p) == brute_bounds(atom, p), (str(atom), str(p))
                expected = outcome(lambda: ultimate_operator_bruteforce(variant, p).lower)
                assert outcome(lambda: lower(p)) == expected, (str(variant), str(p))
                seen.add(isinstance(expected, tuple))
    # the operator table reached both values and overflows
    assert seen == {False, True}


def test_the_lower_operator_table_raises_the_first_overflow_of_the_walk():
    """Where several interpretations of a pair's interval overflow, the
    pair's reference raises the error of the one the interval walk meets
    first: at (f, fxy) that is fx, with sum 2^63, and not fy, whose sum
    2^63 + 1 the walk meets later."""
    half = 1 << 62
    program = parse_program(f"h :- sum{{{half}:f, {half}:x, {half + 1}:y}} >= 0.")
    _, lower = _tables(program)
    messages = set()
    for p in all_consistent_pairs(program.universe):
        expected = outcome(lambda: ultimate_operator_bruteforce(program, p).lower)
        assert outcome(lambda: lower(p)) == expected, str(p)
        if isinstance(expected, tuple):
            messages.add(expected[1])
    assert len(messages) == 3  # 2^63, 2^63 + 1 and 3 * 2^62 + 1


CASES = [
    # (tag, name in `oracle` of the main function, whether it takes the tag first)
    ("ult", "sat3", True),
    ("mr", "sat3", True),
    ("bnd", "bnd_truth", False),
    ("bounds", "exact_bounds", False),
    ("ultimate", "lower_step", False),
]


@pytest.mark.parametrize("tag, main_name, takes_sem", CASES, ids=[c[0] for c in CASES])
def test_verify_still_checks_every_pair(monkeypatch, tag, main_name, takes_sem):
    """A main function made wrong at one chosen pair gives exactly one
    mismatch, which names that pair."""
    program = parse_program(SIX_ATOMS)
    pairs = all_consistent_pairs(program.universe)
    chosen = pairs[len(pairs) // 3]
    atom = program.aggregate_atoms()[-1]
    main = getattr(oracle, main_name)

    def wrong_at_chosen(*args):
        value = main(*args)
        *head, target, p = args
        if p != chosen or (takes_sem and head[0].value != tag):
            return value
        return "wrong" if tag == "ultimate" or target == atom else value

    monkeypatch.setattr(oracle, main_name, wrong_at_chosen)
    report = verify_program(program, ["triv", "ult", "lpst", "bnd", "mr", "ultimate"])
    if tag == "ultimate":
        descriptor = f"most-precise lower operator at {chosen}"
    elif tag == "bounds":
        descriptor = f"bounds of {atom} at {chosen}"
    else:
        descriptor = f"{tag}: {atom} at {chosen}"
    assert [m[:2] for m in report.mismatches] == [(descriptor, "wrong")]
    assert report.skipped == 0


def _spy_walks(monkeypatch):
    """Record the (base, free atoms) of every `_subsets` walk and count
    `_interval` calls."""
    walks, intervals = [], []
    subsets, interval = oracle._subsets, oracle._interval

    def spy_subsets(base, free, *bound):
        walks.append((base, tuple(free)))
        return subsets(base, free, *bound)

    def spy_interval(pair, *bound):
        intervals.append(pair)
        return interval(pair, *bound)

    monkeypatch.setattr(oracle, "_subsets", spy_subsets)
    monkeypatch.setattr(oracle, "_interval", spy_interval)
    return walks, intervals


PER_PAIR_TAGS = ["triv", "ult", "lpst", "bnd", "mr", "ultimate"]


def test_all_pairs_verify_walks_the_universe_once(monkeypatch):
    program = parse_program(SIX_ATOMS)
    walks, intervals = _spy_walks(monkeypatch)
    assert verify_program(program, PER_PAIR_TAGS).ok
    assert intervals == []
    assert walks == [(frozenset(), program.universe)]


def test_sampled_verify_walks_each_pair(monkeypatch):
    program = parse_program(SEVEN_ATOMS)
    assert len(program.universe) == oracle.ALL_PAIRS_ATOMS + 1
    walks, intervals = _spy_walks(monkeypatch)
    assert verify_program(program, PER_PAIR_TAGS).ok
    assert len(intervals) > 800
    assert len(walks) > len(intervals)


def _golden_cases():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case",
    _golden_cases(),
    ids=lambda case: case["name"],
)
def test_verify_output_is_pinned(monkeypatch, capsys, case):
    """`aggsem verify`, text and JSON, on the example programs, a 7-atom
    program (a sampled run), and a 6-atom program with ±2^62 weights whose
    overflows are counted as skipped."""
    argv = [str(PROGRAMS_DIR / a) if a.endswith(".lp") else a for a in case["argv"]]
    if case["stdin"] is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
