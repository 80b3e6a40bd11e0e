"""Bitmask kernels (`eval2.atom_kernels`, `eval2.head_kernels`) against the
per-call paths they stand in for.  With the cap `KERNEL_ATOMS` below
zero no atom and no head gets a kernel, so the same calls take the
sweeps, hulls and member walks; both runs build their atoms and programs
afresh from one seed, since an atom decides once whether it gets a
kernel.  Every relation that reads a kernel gives the same value, or
the same error type and message, and counts the same interval
expansions, at every pair."""

import ast
import pickle
import random
from pathlib import Path

import aggsem.eval2 as eval2
import aggsem.ternary as ternary
from aggsem.bounds import bnd_truth, exact_bounds, interval_truth
from aggsem.eval2 import aggregate_holds_everywhere
from aggsem.fixpoints import lower_step
from aggsem.interp import InterpretationPair, interval_expansion_count
from aggsem.syntax import AggFunc, AggregateAtom, Comparison, Literal, Program, Rule
from aggsem.ternary import all_consistent_pairs, sat3, sat3_body

from .test_stable_check import outcome

PACKAGE = Path(eval2.__file__).parent
UNIVERSE = ("d", "b", "e", "a", "c")  # not sorted, so universe order is not name order
OUTSIDE = "z"  # a condition atom outside UNIVERSE: false in every interval over it
WIDE = "y"  # a second one, so that an atom can pass the cap (outside the programs)
INT64_MAX = (1 << 63) - 1
HALF = 1 << 62
WEIGHTS = (-3, -1, 0, 1, 2, 5)
# 153092023 * 60247241209 == INT64_MAX: prod's guard, the product of
# max(1, |w|), is exactly the largest int64 with these two factors
FACTOR, COFACTOR = 153092023, 60247241209

# the relations that read an atom's kernel, as functions of (atom, pair)
RELATIONS = {
    "interval_truth": interval_truth,
    "aggregate_holds_everywhere": aggregate_holds_everywhere,
    "bnd_truth": bnd_truth,
    "exact_bounds": exact_bounds,
    "sat3 triv": lambda atom, pair: sat3("triv", atom, pair),
    "sat3 gz": lambda atom, pair: sat3("gz", atom, pair),
    "sat3 mr": lambda atom, pair: sat3("mr", atom, pair),
    "sat3 flp": lambda atom, pair: sat3("flp", atom, pair),
    "sat3 ult": lambda atom, pair: sat3("ult", atom, pair),
}


def _entry(rng, weights):
    atom = rng.choice(UNIVERSE + (OUTSIDE,))
    return rng.choice(weights), Literal(atom, rng.random() < 0.35)


def _atoms(rng):
    """Seeded atoms of every function with up to seven entries; some
    repeat a condition or take both of its literals; two families at
    each side of the function's int64 guard: absolute weights summing
    to exactly the largest int64 (kernel) and to one more (no kernel),
    and for prod, factors whose product is exactly the largest int64
    (kernel) and one whose product passes it (no kernel); and one atom
    of seven condition atoms, past the cap."""
    found = []
    for func in AggFunc:
        for _ in range(10):
            entries = [_entry(rng, WEIGHTS) for _ in range(rng.randint(0, 7))]
            if entries and rng.random() < 0.5:
                w, lit = rng.choice(entries)
                entries.append((w, rng.choice((lit, lit.negate()))))
            bound = rng.choice((-2, -1, 0, 1, 2, 3))
            found.append(AggregateAtom(func, tuple(entries), rng.choice(list(Comparison)), bound))
        if func is AggFunc.PROD:  # products of max(1, |w|): INT64_MAX, INT64_MAX + FACTOR
            families = ((FACTOR, COFACTOR, rng.choice((0, 1, -1))), (FACTOR, COFACTOR + 1, 0))
        else:  # sums of |w|: INT64_MAX, INT64_MAX + 1
            families = ((HALF, HALF - 1, 0), (HALF, HALF, 0))
        for first, second, third in families:
            signs = rng.choice((1, -1)), rng.choice((1, -1))
            entries = [(signs[0] * first, Literal("a"))]
            entries += [(signs[1] * second, Literal("e", rng.random() < 0.5))]
            entries += [(third, Literal(rng.choice(UNIVERSE)))]
            bound = rng.choice((0, 1, -1, HALF, -HALF, INT64_MAX))
            found.append(AggregateAtom(func, tuple(entries), rng.choice(list(Comparison)), bound))
        wide = [(rng.choice(WEIGHTS), Literal(a)) for a in UNIVERSE + (OUTSIDE, WIDE)]
        found.append(AggregateAtom(func, tuple(wide), rng.choice(list(Comparison)), 1))
    return found


def _programs(rng, atoms):
    """Programs over UNIVERSE and OUTSIDE whose heads mix literals and the
    atoms above, one to three bodies per head."""
    programs = []
    atoms = [atom for atom in atoms if WIDE not in atom.condition_atoms]
    for _ in range(16):
        rules = []
        for head in rng.sample(UNIVERSE, 3):
            for _ in range(rng.randint(1, 3)):
                body = [rng.choice(atoms)] if rng.random() < 0.8 else []
                body += [Literal(rng.choice(UNIVERSE), rng.random() < 0.4)]
                rules.append(Rule(head, tuple(body[: rng.randint(1, 2)])))
        programs.append(Program(tuple(rules), UNIVERSE + (OUTSIDE,)))
    return programs


def _pairs():
    """Every consistent pair over UNIVERSE, then three inconsistent ones."""
    pairs = all_consistent_pairs(UNIVERSE)
    for lower, upper in ((("d",), ()), (("a", "b"), ("b", "c")), (UNIVERSE, UNIVERSE[1:])):
        pairs.append(InterpretationPair.of(UNIVERSE, lower, upper))
    return pairs


def _counted(compute):
    before = interval_expansion_count()
    result = outcome(compute)
    return result, interval_expansion_count() - before


def _run(monkeypatch, kernels):
    """Every relation at every pair, and the ultimate lower operator of
    each program and `sat3_body("ultimate")` of each of its heads given
    as plain lists, at every pair over UNIVERSE and over its own
    universe, with kernels or without; the outcomes, and how many atoms
    and heads had a kernel."""
    with monkeypatch.context() as patch:
        if not kernels:
            patch.setattr(eval2, "KERNEL_ATOMS", -1)
        ternary._plain_bodies.cache_clear()  # no plain disjunction keeps the other run's kernel
        rng = random.Random(20261020)
        atoms = _atoms(rng)
        programs = _programs(rng, atoms)
        pairs = _pairs()
        results = [
            _counted(lambda: relation(atom, pair))
            for atom in atoms
            for pair in pairs
            for relation in RELATIONS.values()
        ]
        for program in programs:
            own = all_consistent_pairs(program.universe)
            for pair in pairs + own:
                results.append(_counted(lambda: lower_step("ultimate", program, pair)))
                for _, bodies in program.entries:
                    plain = [list(body) for body in bodies]
                    results.append(_counted(lambda: sat3_body("ultimate", plain, pair)))
        with_kernel = sum(atom._kernels is not None for atom in atoms)
        slots = [bodies._kernels for program in programs for _, bodies in program.entries]
        # a slot keeps the kernel of the last universe; None: an evaluation overflowed
        heads = [slot.built[1] is not None for slot in slots if slot is not None]
    return results, with_kernel, (sum(heads), len(heads) - sum(heads))


def test_kernels_answer_as_the_per_call_paths(monkeypatch):
    ours, atoms_with, heads_with = _run(monkeypatch, kernels=True)
    reference, atoms_without, heads_without = _run(monkeypatch, kernels=False)
    assert (atoms_without, heads_without) == (0, (0, 0))
    # every function gets kernels; the atom past the cap and the family
    # past the guard get none, and nothing else can overflow
    assert atoms_with == len(AggFunc) * (13 - 2)
    assert heads_with[0] >= 20 and heads_with[1] >= 1, heads_with
    assert len(ours) == len(reference)
    for index, (got, expected) in enumerate(zip(ours, reference)):
        assert got == expected, index
    kinds = {value[0] if isinstance(value, tuple) else type(value).__name__ for value, _ in ours}
    assert {"ArithmeticOverflowError", "InconsistentPairError", "Bounds", "TruthValue"} <= kinds


def test_kernel_eligibility():
    def atom(func, *weights):
        entries = tuple((w, Literal(a)) for w, a in zip(weights, "abcdefg"))
        return AggregateAtom(func, entries, Comparison.GE, 0)

    fits, past = atom(AggFunc.SUM, HALF, -(HALF - 1)), atom(AggFunc.SUM, HALF, -HALF)
    wide = atom(AggFunc.CARD, *[1] * 7)
    kernel = fits._kernels.over(fits, UNIVERSE)
    both = InterpretationPair.of(UNIVERSE, ("a", "b"), ("a", "b"))
    assert kernel.value[both.masks[0]] == 1
    assert sum(kernel.value.values()) == HALF + 1 - (HALF - 1)  # members {}, {a}, {b}, {a, b}
    assert (past._kernels, wide._kernels) == (None, None)

    # prod: a kernel whose value at every member is the checked product
    bits = {a: 1 << UNIVERSE.index(a) for a in UNIVERSE}
    for weights in ((-3, 5), (FACTOR, COFACTOR), (-FACTOR, COFACTOR)):
        prod = atom(AggFunc.PROD, *weights)
        kernel = prod._kernels.over(prod, UNIVERSE)
        assert kernel.cm == bits["a"] | bits["b"]
        for chosen in ((), ("a",), ("b",), ("a", "b")):
            key = sum(bits[a] for a in chosen)
            member = [w for w, a in zip(weights, "ab") if a in chosen]
            assert kernel.value[key] == eval2.checked_product(member), (weights, chosen)
    assert FACTOR * COFACTOR == INT64_MAX
    # a product of max(1, |w|) past INT64_MAX gets none: a factor 0 does
    # not lift the guard, and it is conservative, as every product of
    # {2^62, -2} fits (the least is -2^63)
    for weights in ((HALF, 2), (HALF, 2, 0), (FACTOR, COFACTOR + 1), (HALF, -2)):
        assert atom(AggFunc.PROD, *weights)._kernels is None, weights


def test_an_atom_with_a_kernel_pickles_compares_hashes_and_prints_as_before():
    entries = ((2, Literal("a")), (-1, Literal("z", True)), (3, Literal("a")))
    atom = AggregateAtom(AggFunc.AVG, entries, Comparison.GT, 1)
    twin = AggregateAtom(AggFunc.AVG, entries, Comparison.GT, 1)
    pair = InterpretationPair.of(UNIVERSE, (), ("a", "c"))
    before = pickle.dumps(atom), hash(atom), repr(atom), str(atom)
    pair_before = hash(pair), repr(pair), str(pair)
    sat3("ult", atom, pair)
    assert atom._kernels.built[1] is not None
    assert (pickle.dumps(atom), hash(atom), repr(atom), str(atom)) == before
    assert (hash(pair), repr(pair), str(pair)) == pair_before
    assert atom == twin and twin == atom and hash(twin) == hash(atom)
    copy = pickle.loads(pickle.dumps(atom))
    assert copy == atom and "_kernels" not in vars(copy)

    program = Program((Rule("a", (atom,)), Rule("a", (Literal("b"),))), UNIVERSE + ("z",))
    (_, bodies), = program.entries
    lower_step("ultimate", program, pair)
    assert bodies._kernels.built[1] is not None
    plain = tuple(bodies)
    assert (bodies == plain, hash(bodies), repr(bodies)) == (True, hash(plain), repr(plain))
    copy = pickle.loads(pickle.dumps(bodies))
    assert copy == bodies and "_kernels" not in vars(copy)


# ---------------------------------------------------------------------------
# structure: one home for the kernel tables
# ---------------------------------------------------------------------------

LAYOUT = {"_kernel_members", "Kernel", "KernelSlot", "built", "_NO_KERNEL", "_entry_truth"}


def _kernel_reads(module):
    """(module, name) of each read of a kernel slot (the attribute
    `_kernels`) and each mention of the tables' layout (the names of
    `LAYOUT`) as a name, an attribute or an import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT | {"_kernels"}:
            found.add((module, node.attr))
        elif isinstance(node, ast.Name) and node.id in LAYOUT:
            found.add((module, node.id))
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in LAYOUT:
            found.add((module, node.name))
    return found


def test_only_eval2_reads_kernel_tables():
    places = set().union(*(_kernel_reads(path.stem) for path in PACKAGE.glob("*.py")))
    assert places == {("eval2", name) for name in LAYOUT | {"_kernels"}}
    # syntax only defines the slots, one cached property per owner
    tree = ast.parse((PACKAGE / "syntax.py").read_text(encoding="utf-8"))
    defined = [
        (owner.name, [d.id for d in node.decorator_list if isinstance(d, ast.Name)])
        for owner in ast.walk(tree)
        if isinstance(owner, ast.ClassDef)
        for node in owner.body
        if isinstance(node, ast.FunctionDef) and node.name == "_kernels"
    ]
    assert defined == [("AggregateAtom", ["cached_property"]), ("Bodies", ["cached_property"])]
