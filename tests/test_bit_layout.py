"""`interp` owns the universe bit layout: bit k of a mask stands for
universe[k].  `Interpretation.mask` against a positional reference, the
pickles and prints it leaves alone, the universe checks built on the
same bit index, and the two constructions that now read masks
(`all_consistent_pairs` and the head kernels) against the code they
replaced, kept here as references."""

import ast
import pickle
import random
from itertools import combinations
from pathlib import Path

import pytest

import aggsem.eval2 as eval2
from aggsem import ArithmeticOverflowError, UniverseMismatchError, oracle
from aggsem.eval2 import Kernel, sat2_disjunction
from aggsem.interp import Interpretation, InterpretationPair, enumerate_interval, extensions
from aggsem.syntax import AggregateAtom, Literal, Program, Rule
from aggsem.ternary import all_consistent_pairs

PACKAGE = Path(eval2.__file__).parent
HALF = 1 << 62  # two of these sum to 2^63, one past the largest int64


def reference_mask(interpretation):
    return sum(1 << k for k, a in enumerate(interpretation.universe) if a in interpretation)


def _universe(rng, size):
    """Distinct atom names in no sorted order."""
    names = [f"{rng.choice('pqrstuvw')}{k}" for k in range(size)]
    rng.shuffle(names)
    return tuple(names)


# ---------------------------------------------------------------------------
# Interpretation.mask
# ---------------------------------------------------------------------------


def test_mask_is_the_positional_layout():
    rng = random.Random(20261021)
    checked = 0
    for _ in range(60):
        universe = _universe(rng, rng.randint(0, 8))
        chosen = [a for a in universe if rng.random() < 0.5]
        x = Interpretation.of(universe, chosen)
        free = [a for a in universe if a not in chosen and rng.random() < 0.6]
        rng.shuffle(free)
        y = x.union(free)
        twin = tuple(list(universe))  # equal, not the same object
        assert twin is not universe or not universe
        members = [
            x,
            y,
            *extensions(x, free),  # built without the universe check
            *enumerate_interval(x, y),
            Interpretation(twin, frozenset(chosen)),
            pickle.loads(pickle.dumps(y)),
        ]
        for z in members:
            assert z.mask == reference_mask(z), (universe, z)
            checked += 1
    assert checked > 500


def test_reading_the_mask_changes_no_print_hash_or_pickle():
    universe = ("q", "p", "s", "r")
    i = Interpretation.of(universe, ("s", "q"))
    twin = Interpretation.of(universe, ("q", "s"))
    before = i == twin, hash(i), repr(i), str(i), pickle.dumps(i)
    assert i.mask == 0b101
    assert (i == twin, hash(i), repr(i), str(i), pickle.dumps(i)) == before
    assert twin == i and hash(twin) == hash(i)
    copy = pickle.loads(pickle.dumps(i))
    assert copy == i and "mask" not in vars(copy) and copy.mask == i.mask

    pair = InterpretationPair(Interpretation.of(universe, ("q",)), i)
    pair_before = hash(pair), repr(pair), str(pair), pickle.dumps(pair)
    assert pair.masks == (0b1, 0b101)
    assert (hash(pair), repr(pair), str(pair), pickle.dumps(pair)) == pair_before


def test_atoms_outside_the_universe_keep_their_message():
    universe = ("q", "p")
    message = "atoms outside the universe: r, z"
    with pytest.raises(UniverseMismatchError, match=f"^{message}$"):
        Interpretation.of(universe, ("z", "p", "r"))
    with pytest.raises(UniverseMismatchError, match=f"^{message}$"):
        Interpretation.of(universe, ("p",)).with_atoms(("r", "z"))
    with pytest.raises(UniverseMismatchError, match=f"^{message}$"):
        next(extensions(Interpretation.empty(universe), ["q", "z", "r"]))


def test_a_universe_that_repeats_an_atom_has_no_layout():
    repeated = ("a", "b", "a")
    message = "^universe contains duplicate atoms$"
    for build in (
        lambda: Interpretation.of(repeated, ("a",)),
        lambda: Interpretation.empty(repeated),
        lambda: InterpretationPair.of(repeated, ["a"], ["a", "b"]),
        lambda: InterpretationPair.least_precise(repeated),
        lambda: all_consistent_pairs(repeated),
    ):
        with pytest.raises(UniverseMismatchError, match=message):
            build()
    # the same atoms once each still build
    assert InterpretationPair.of(("a", "b"), ["a"], ["a", "b"]).masks == (1, 3)


# ---------------------------------------------------------------------------
# all_consistent_pairs against the frozenset construction it replaced
# ---------------------------------------------------------------------------


def reference_consistent_pairs(universe):
    """Every subset by size, then by universe positions; the pairs by upper
    set, then by lower set, in that order."""
    subsets = [
        frozenset(subset)
        for size in range(len(universe) + 1)
        for subset in combinations(universe, size)
    ]
    pairs = []
    for upper in subsets:
        up = Interpretation(universe, upper)
        for lower in subsets:
            if lower <= upper:
                pairs.append(InterpretationPair(Interpretation(universe, lower), up))
    return pairs


def test_consistent_pairs_keep_their_order():
    rng = random.Random(7)
    for size in range(7):
        universe = _universe(rng, size)
        got, expected = all_consistent_pairs(universe), reference_consistent_pairs(universe)
        assert len(got) == 3**size
        assert got == expected
        assert [str(p) for p in got] == [str(p) for p in expected]
        assert all(p.masks == (reference_mask(p.lower), reference_mask(p.upper)) for p in got)


# ---------------------------------------------------------------------------
# head kernels against the doubling build they replaced
# ---------------------------------------------------------------------------


def reference_bodies_atoms(bodies):
    mentioned = (
        [e.atom] if isinstance(e, Literal) else e.condition_atoms for body in bodies for e in body
    )
    return tuple(dict.fromkeys(a for atoms in mentioned for a in atoms))


def reference_head_kernel(bodies, universe):
    bits = {a: 1 << k for k, a in enumerate(universe)}
    keys, chosen = [0], [frozenset()]
    for a in reference_bodies_atoms(bodies):
        if a in bits:
            keys += [key | bits[a] for key in keys]
            chosen += [atoms | {a} for atoms in chosen]
    try:
        truth = [sat2_disjunction(bodies, Interpretation(universe, atoms)) for atoms in chosen]
    except ArithmeticOverflowError:
        return None
    return Kernel(keys[-1], dict(zip(keys, truth)))


def _with_big_weights(program):
    def big(element):
        if not isinstance(element, AggregateAtom):
            return element
        entries = tuple((HALF if w >= 0 else -HALF, lit) for w, lit in element.entries)
        return AggregateAtom(element.func, entries, element.cmp, element.bound)

    rules = tuple(Rule(r.head, tuple(big(e) for e in r.body)) for r in program.rules)
    return Program(rules, program.universe)


def test_head_kernels_match_the_doubling_build():
    rng = random.Random(20261021)
    outcomes = {"table": 0, "overflow": 0}
    for _ in range(150):
        program = oracle.random_program(rng, max_atoms=6, max_rules=9)
        for variant in (program, _with_big_weights(program)):
            reordered = list(variant.universe)
            rng.shuffle(reordered)
            # the last atom left out: it is false in every interval over the rest
            for universe in (variant.universe, tuple(reordered), tuple(reordered[:-1])):
                for _, bodies in variant.entries:
                    assert bodies.atoms == reference_bodies_atoms(bodies)
                    expected = reference_head_kernel(bodies, universe)
                    assert eval2._head_kernel(bodies, universe) == expected, (str(variant), universe)
                    outcomes["overflow" if expected is None else "table"] += 1
    assert outcomes["table"] > 1000 and outcomes["overflow"] > 20, outcomes


# ---------------------------------------------------------------------------
# structure: one home for the layout
# ---------------------------------------------------------------------------


def _position_shifts(module):
    """(module, function) of each place that lays items out as bits by
    their positions: a shift by a position that `enumerate` yields, as in
    `{a: 1 << k for k, a in enumerate(universe)}`, or a bit doubled in
    place (`bit <<= 1`) as a loop walks a sequence."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        positions = set()
        for node in ast.walk(function):
            if (
                isinstance(node, (ast.For, ast.comprehension))
                and isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Name)
                and node.iter.func.id == "enumerate"
                and isinstance(node.target, ast.Tuple)
                and isinstance(node.target.elts[0], ast.Name)
            ):
                positions.add(node.target.elts[0].id)
        for node in ast.walk(function):
            shift = isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.RShift))
            if shift and isinstance(node.right, ast.Name) and node.right.id in positions:
                found.add((module, function.name))
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.LShift):
                found.add((module, function.name))
    return found


def test_only_interp_and_the_oracle_lay_out_bits():
    places = set().union(*(_position_shifts(path.stem) for path in PACKAGE.glob("*.py")))
    assert places == {("interp", "_bit_index"), ("oracle", "_subsets")}
