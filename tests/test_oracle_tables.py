"""`verify_program` checks each formula at its own pairs, those over its
atoms with every other atom false, and reads its references there from
tables that one fold of the whole interpretations over those atoms
fills per call.  The tables agree with the public per-pair references,
every own pair is still checked, at any universe size, the per-pair
walks are gone from own-pair checks and stay in sampled ones (formulas
above the cap), and the command's output is the one pinned in
`data/verify_golden.json`."""

import io
import json
import os
import random
import subprocess
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


def own_pairs(program, atoms):
    """The pairs over `atoms` at which `verify_program` checks a formula
    of those atoms, every other atom false."""
    ordered = tuple(a for a in program.universe if a in set(atoms))
    return oracle._PairTables(ordered).pairs(program.universe)


@pytest.mark.parametrize("tag, main_name, takes_sem", CASES, ids=[c[0] for c in CASES])
def test_verify_still_checks_every_pair(monkeypatch, tag, main_name, takes_sem):
    """A main function made wrong at one chosen own pair of the last
    aggregate atom (for `ultimate`, of the last head) gives exactly one
    mismatch, which names that pair."""
    program = parse_program(SIX_ATOMS)
    atom = program.aggregate_atoms()[-1]
    head, bodies = program.entries[-1]
    formula_atoms = bodies.atoms if tag == "ultimate" else atom.condition_atoms
    pairs = own_pairs(program, formula_atoms)
    assert len(pairs) == 3**3
    chosen = pairs[len(pairs) // 3]
    main = getattr(oracle, main_name)

    def wrong_at_chosen(*args):
        value = main(*args)
        *first, target, p = args
        if p != chosen or (takes_sem and first[0].value != tag):
            return value
        if tag == "ultimate":
            # the one head's membership flipped
            return value.with_atoms(value.atoms ^ {head})
        return "wrong" if target == atom else value

    monkeypatch.setattr(oracle, main_name, wrong_at_chosen)
    report = verify_program(program, ["triv", "ult", "lpst", "bnd", "mr", "ultimate"])
    if tag == "ultimate":
        reference = head in ultimate_operator_bruteforce(program, chosen).lower
        expected = [
            (f"most-precise lower operator: {head} at {chosen}", str(not reference), str(reference))
        ]
        assert report.mismatches == expected
    else:
        if tag == "bounds":
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
    """One walk per distinct formula atom set, each over those atoms in
    universe order, and no per-pair interval walk."""
    program = parse_program(SIX_ATOMS)
    walks, intervals = _spy_walks(monkeypatch)
    assert verify_program(program, PER_PAIR_TAGS).ok
    assert intervals == []
    formulas = [a.condition_atoms for a in program.aggregate_atoms()]
    formulas += [bodies.atoms for _, bodies in program.entries]
    atom_sets = {tuple(a for a in program.universe if a in set(f)) for f in formulas}
    assert len(atom_sets) == 6
    assert sorted(walks) == sorted((frozenset(), atoms) for atoms in atom_sets)


# one 7-condition aggregate: its atom and its head are above the cap
WIDE = "h :- sum{1:a, 1:b, 1:c, 1:d, 1:e, 1:f, -1:g} >= 2.\n"


def test_sampled_verify_walks_each_pair(monkeypatch):
    program = parse_program(WIDE)
    (atom,) = program.aggregate_atoms()
    assert len(atom.condition_atoms) == oracle.ALL_PAIRS_ATOMS + 1
    walks, intervals = _spy_walks(monkeypatch)
    assert verify_program(program, PER_PAIR_TAGS).ok
    assert len(intervals) > 800
    assert len(walks) > len(intervals)


# eight atoms, no formula of more than six (the bodies of f have six)
EIGHT_ATOMS = """
a :- not b.
b :- not a.
c :- sum{1:a, 2:b, -1:d} >= 1.
d :- card{1:e, 1:f} >= 1, not g.
e :- min{3:a, 1:h} < 2.
f :- c, d.
f :- sum{1:e, 1:g, 1:h, -1:a} > 1.
g :- avg{2:e, 4:f, 1:c} > 2.
h :- not a, max{1:c, 2:g} != 1.
"""
# and one formula of seven: both the atom and its head are sampled
SEVEN_CONDITIONS = "w :- sum{1:a, 1:b, 1:c, 1:d, 1:e, 1:f, -1:g} >= 2.\n"


def _verify_text(capsys, text, tmp_path, seed):
    path = tmp_path / "program.lp"
    path.write_text(text, encoding="utf-8")
    code = run(["verify", str(path), "--semantics", ",".join(PER_PAIR_TAGS), "--seed", seed])
    return code, capsys.readouterr()


def _checked_pairs(monkeypatch, program, seed):
    """Per aggregate atom, the pairs of its bounds checks."""
    checked = {}
    exact_bounds = oracle.exact_bounds

    def recording(atom, pair):
        checked.setdefault(atom, []).append(pair)
        return exact_bounds(atom, pair)

    with monkeypatch.context() as patched:
        patched.setattr(oracle, "exact_bounds", recording)
        report = verify_program(program, PER_PAIR_TAGS, seed=seed)
    return report, checked


def test_small_formulas_are_checked_at_every_own_pair_at_any_universe_size(
    monkeypatch, capsys, tmp_path
):
    program = parse_program(EIGHT_ATOMS)
    assert len(program.universe) == 8
    atoms = program.aggregate_atoms()
    heads = [bodies.atoms for _, bodies in program.entries]
    formulas = [a.condition_atoms for a in atoms] + heads
    assert max(map(len, formulas)) == oracle.ALL_PAIRS_ATOMS
    # the bounds and five relations per aggregate atom, `ultimate` per head
    every_own_pair = sum(6 * 3 ** len(a.condition_atoms) for a in atoms)
    every_own_pair += sum(3 ** len(h) for h in heads)
    reports = {seed: _checked_pairs(monkeypatch, program, seed) for seed in (0, 3)}
    report, checked = reports[0]
    assert (report.checked, report.skipped, report.mismatches) == (every_own_pair, 0, [])
    assert reports[3] == reports[0]
    assert {a: len(pairs) for a, pairs in checked.items()} == {
        a: 3 ** len(a.condition_atoms) for a in atoms
    }
    assert _verify_text(capsys, EIGHT_ATOMS, tmp_path, "0") == _verify_text(
        capsys, EIGHT_ATOMS, tmp_path, "3"
    )

    wide = parse_program(EIGHT_ATOMS + SEVEN_CONDITIONS)
    reports = {seed: _checked_pairs(monkeypatch, wide, seed) for seed in (0, 3)}
    (wide_atom,) = set(wide.aggregate_atoms()) - set(atoms)
    for seed, (report, checked) in reports.items():
        # the new atom's six checks and its head's one at 800 sampled pairs
        assert report.checked + report.skipped == every_own_pair + 7 * 800, seed
        assert len(checked[wide_atom]) == 800
    assert reports[0][1].pop(wide_atom) != reports[3][1].pop(wide_atom)
    assert reports[0][1] == reports[3][1]


def test_sampled_pairs_depend_on_the_seed_alone(tmp_path):
    """A formula above the cap is checked at pairs drawn in universe
    order: the report is the same under two string hash seeds.  Its
    ±2^62 weights skip the checks at the pairs where a and b may both be
    true, so the skip count shows which pairs were drawn."""
    half = 1 << 62
    path = tmp_path / "wide.lp"
    wide = f"w :- sum{{{half}:a, {half}:b, 1:c, 1:d, 1:e, 1:f, -1:g}} >= 2.\n"
    path.write_text(EIGHT_ATOMS + wide, encoding="utf-8")
    src = str(Path(oracle.__file__).resolve().parent.parent)
    outputs = {}
    for hash_seed in ("1", "2"):
        for seed in ("0", "3"):
            command = [sys.executable, "-m", "aggsem", "verify", str(path), "--seed", seed,
                       "--semantics", ",".join(PER_PAIR_TAGS)]
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
            outputs[hash_seed, seed] = done.returncode, done.stdout, done.stderr
    for seed in ("0", "3"):
        assert outputs["1", seed] == outputs["2", seed]
        assert outputs["1", seed][0] == 0 and "skipped: " in outputs["1", seed][1]
    assert outputs["1", "0"] != outputs["1", "3"]


def _golden_cases():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case",
    _golden_cases(),
    ids=lambda case: case["name"],
)
def test_verify_output_is_pinned(monkeypatch, capsys, case):
    """`aggsem verify`, text and JSON, on the example programs (the
    18-condition aggregate of `wide_aggregate_18.lp` is checked at
    sampled pairs), a 7-atom program whose formulas are all checked at
    their own pairs, and a 6-atom program with ±2^62 weights whose
    overflows are counted as skipped."""
    argv = [str(PROGRAMS_DIR / a) if a.endswith(".lp") else a for a in case["argv"]]
    if case["stdin"] is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
