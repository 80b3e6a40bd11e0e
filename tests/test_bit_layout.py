"""`interp` owns the universe bit layout: bit k of a mask stands for
universe[k], and a `Universe` keeps each atom's bit.  `Interpretation.mask`
against a positional reference, the pickles and prints that deriving
the atoms leaves alone, the universe checks built on the same layout,
a Universe against the plain tuple of its atoms, and the two
constructions that read masks (`all_consistent_pairs` and the head
kernels) against the code they replaced, kept here as references."""

import ast
import pickle
import random
from itertools import combinations
from pathlib import Path

import pytest

import aggsem.eval2 as eval2
from aggsem import ArithmeticOverflowError, UniverseMismatchError, interp, oracle, parse_program
from aggsem.eval2 import Kernel, sat2_disjunction
from aggsem.interp import (
    Interpretation,
    InterpretationPair,
    Universe,
    enumerate_interval,
    extensions,
)
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
            Interpretation.of(twin, chosen),
            Interpretation.of(Universe(universe), chosen),
            pickle.loads(pickle.dumps(y)),
        ]
        for z in members:
            assert z.mask == reference_mask(z), (universe, z)
            checked += 1
    assert checked > 500


def test_reading_the_mask_changes_no_print_hash_or_pickle():
    """The mask is a field; the atoms are derived on first read, which
    changes no equality, hash, print or pickle, and a copy does not carry
    them."""
    universe = ("q", "p", "s", "r")
    i = Interpretation.of(universe, ("s", "q"))
    twin = Interpretation.of(universe, ("q", "s"))
    assert i.mask == 0b101 and "atoms" not in vars(i)
    before = i == twin, hash(i), repr(i), str(i), pickle.dumps(i)
    assert i.atoms == frozenset({"q", "s"}) and "atoms" in vars(i)
    assert (i == twin, hash(i), repr(i), str(i), pickle.dumps(i)) == before
    assert twin == i and hash(twin) == hash(i)
    copy = pickle.loads(pickle.dumps(i))
    assert copy == i and "atoms" not in vars(copy) and copy.atoms == i.atoms

    pair = InterpretationPair(Interpretation.of(universe, ("q",)), i)
    pair_before = hash(pair), repr(pair), str(pair), pickle.dumps(pair)
    assert pair.masks == (0b1, 0b101)
    assert (hash(pair), repr(pair), str(pair), pickle.dumps(pair)) == pair_before


def test_walk_members_carry_their_mask_and_print_hash_and_pickle_as_built():
    """`extensions` stores each member's atoms as it builds the member; the
    member still compares, hashes, prints and pickles as one built with
    the universe check, and its unpickled copy derives the atoms again."""
    universe = ("q", "p", "s", "r")
    x = Interpretation.of(universe, ("p",))
    members = list(extensions(x, ["r", "q", "s"]))
    assert len(members) == 8
    for member in members[1:]:  # the first is x itself
        assert "atoms" in vars(member)
        twin = Interpretation.of(universe, member.atoms)
        seen = member == twin, hash(member), repr(member), str(member), pickle.dumps(member)
        assert seen == (True, hash(twin), repr(twin), str(twin), pickle.dumps(twin))
        copy = pickle.loads(pickle.dumps(member))
        assert "atoms" not in vars(copy) and copy.atoms == member.atoms == twin.atoms


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
        lambda: Universe(repeated),
    ):
        with pytest.raises(UniverseMismatchError, match=message):
            build()
    # a program keeps its own error type and message
    with pytest.raises(ValueError, match=message):
        Program((Rule("a"),), repeated)
    # the same atoms once each still build
    assert InterpretationPair.of(("a", "b"), ["a"], ["a", "b"]).masks == (1, 3)


def test_the_last_universe_asked_answers_without_hashing():
    class Counted(Universe):
        """A universe that counts how often it is hashed."""

        hashes = 0

        def __hash__(self):
            Counted.hashes += 1
            return super().__hash__()

    universe = Counted(("q", "p", "r"))
    assert isinstance(universe, tuple) and universe.bits == {"q": 1, "p": 2, "r": 4}
    before = Counted.hashes
    x = Interpretation.of(universe, ("p",))
    pairs = [
        InterpretationPair.of(universe, ("p",), ("p", "r")),
        InterpretationPair.least_precise(universe),
        InterpretationPair(x, Interpretation.full(universe)),
        *all_consistent_pairs(universe),
    ]
    members = [*extensions(x, ["r", "q"]), *enumerate_interval(x, pairs[0].upper)]
    assert all(p.universe is universe and p.is_consistent for p in pairs)
    assert all(z.universe is universe for z in members)
    assert [z.mask for z in members] == [2, 6, 3, 7, 2, 6]
    assert x.union(["q"]).mask == 3 and "q" not in x and x.universe.bits["r"] == 4
    assert Counted.hashes == before
    # a plain tuple becomes an equal Universe where it enters
    equal = ("q", "p", "r")
    twin = Interpretation.of(equal, ("p",))
    assert type(twin.universe) is Universe and twin.universe.bits == universe.bits
    assert twin == x and hash(twin) == hash(x)
    # a universe that repeats an atom raises right after another entered
    with pytest.raises(UniverseMismatchError, match="^universe contains duplicate atoms$"):
        Interpretation.of(("a", "b", "a"))
    assert Interpretation.of(equal, ("p",)).universe is twin.universe


def test_a_parsed_universe_and_the_plain_tuple_build_the_same_values():
    program = parse_program("h :- sum{1:p, 2:q} >= 2. p :- not q. q :- not p.")
    parsed, plain = program.universe, tuple(program.universe)
    assert type(parsed) is Universe and parsed == plain and hash(parsed) == hash(plain)
    i, j = Interpretation.of(parsed, ("q", "h")), Interpretation.of(plain, ("h", "q"))
    assert i.universe is parsed and j.universe is not parsed
    assert (i == j, hash(i), repr(i), str(i)) == (True, hash(j), repr(j), str(j))
    pair = InterpretationPair.of(parsed, ("q",), ("q", "h"))
    twin = InterpretationPair.of(plain, ("q",), ("h", "q"))
    seen = pair == twin, hash(pair), repr(pair), str(pair)
    assert seen == (True, hash(twin), repr(twin), str(twin))
    # the atom's kernel is built for the first universe and read for the equal one
    atom = program.aggregate_atoms()[0]
    built = []
    build = atom._kernels.build
    atom._kernels.build = lambda owner, universe: built.append(universe) or build(owner, universe)
    kernels = [atom._kernels.read(atom, u)[1] for u in (parsed, plain, parsed)]
    assert built == [parsed] and kernels[0] is kernels[1] is kernels[2]


def test_pickles_keep_the_layout():
    universe = Universe(("q", "p", "s"))
    i = Interpretation(universe, 0b101)
    pair = InterpretationPair(Interpretation(universe, 0b001), i)
    for value in (universe, i, pair):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value) and repr(copy) == repr(value)
    copy = pickle.loads(pickle.dumps(pair))
    assert type(copy.universe) is Universe and copy.universe.bits == universe.bits
    assert copy.masks == (0b001, 0b101) and copy.upper.atoms == {"q", "s"}
    assert pickle.loads(pickle.dumps(universe)).bits == {"q": 1, "p": 2, "s": 4}


def test_equality_holds_across_the_universe_table_overflow():
    universe = ("q", "p")
    before = Interpretation.of(universe, ("p",))
    for k in range(interp.UNIVERSE_TABLE + 1):  # the table is cleared on the way
        Interpretation.of((f"x{k}",))
    after = Interpretation.of(universe, ("p",))
    assert after.universe is not before.universe
    assert after == before and hash(after) == hash(before) and repr(after) == repr(before)
    assert InterpretationPair.exact(after) == InterpretationPair.exact(before)


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
        up = Interpretation.of(universe, upper)
        for lower in subsets:
            if lower <= upper:
                pairs.append(InterpretationPair(Interpretation.of(universe, lower), up))
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
        truth = [sat2_disjunction(bodies, Interpretation.of(universe, atoms)) for atoms in chosen]
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
    assert places == {("interp", "__new__"), ("oracle", "_subsets")}
