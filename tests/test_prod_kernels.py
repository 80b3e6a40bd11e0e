"""prod atoms with a bitmask kernel: stable search on a program whose prod
atoms have two or three condition atoms rebuilds no `bnd` hull and walks
no prod member, and gives the models of the kernel-free run; and the
guard of `eval2.atom_kernels` is sound, as no product of the weights of
an atom with a kernel leaves the signed 64-bit range, in any order."""

import random
from itertools import combinations

import aggsem.bounds as bounds
import aggsem.eval2 as eval2
from aggsem import ArithmeticOverflowError, parse_program
from aggsem.eval2 import checked_product
from aggsem.fixpoints import stable_enumerate
from aggsem.syntax import AggFunc, AggregateAtom, Comparison, Literal

# Every prod atom has two or three condition atoms; b/c and f/g are even
# loops, so the box leaves them undefined and the scan tests them.
PROGRAM = """
b :- not c.
c :- not b.
f :- not g.
g :- not f.
a :- prod{2:b, -1:c, 3:f} >= 2.
d :- prod{3:a, 2:b, -1:d} < 0.
e :- prod{2:a, 2:e} != 4, not g.
h :- prod{-2:f, 5:not g} <= -10.
"""


def _search(monkeypatch, sem, kernels):
    """The models of `stable_enumerate` on a fresh parse, the `bounds._hull`
    calls and the `eval_aggregate` calls on a prod member it made."""
    counts = {"hull": 0, "prod members": 0}
    hull, evaluate = bounds._hull, eval2.eval_aggregate

    def counted_hull(*args):
        counts["hull"] += 1
        return hull(*args)

    def counted_evaluate(atom, z):
        counts["prod members"] += atom.func is AggFunc.PROD
        return evaluate(atom, z)

    with monkeypatch.context() as patch:
        if not kernels:
            patch.setattr(eval2, "KERNEL_ATOMS", -1)
        patch.setattr(bounds, "_hull", counted_hull)
        patch.setattr(eval2, "eval_aggregate", counted_evaluate)
        models = stable_enumerate(sem, parse_program(PROGRAM))
    return sorted(sorted(m.atoms) for m in models), counts


def test_stable_search_on_small_prod_atoms_builds_no_hull_and_walks_no_member(monkeypatch):
    for sem in ("bnd", "ult"):
        models, counts = _search(monkeypatch, sem, kernels=True)
        reference, reference_counts = _search(monkeypatch, sem, kernels=False)
        assert counts == {"hull": 0, "prod members": 0}, sem
        assert models == reference and models, sem
        # the kernel-free run does rebuild the hull (the box), and ult walks
        assert reference_counts["hull"] > 0, sem
        assert reference_counts["prod members"] > 0 or sem == "bnd", sem


WEIGHTS = [0] + [sign * w for w in (1, 2, 3, 1 << 20, 1 << 31, 1 << 62) for sign in (1, -1)]


def _products_fit(weights):
    try:
        for size in range(len(weights) + 1):
            for subset in combinations(weights, size):
                checked_product(subset)
                checked_product(reversed(subset))
    except ArithmeticOverflowError:
        return False
    return True


def test_the_prod_guard_is_sound():
    rng = random.Random(20261021)
    atoms = ("a", "b", "c", "d", "e", "f")
    seen = {"kernel": 0, "none": 0, "kernel with a big weight": 0}
    for _ in range(600):
        entries = tuple(
            (rng.choice(WEIGHTS), Literal(rng.choice(atoms), rng.random() < 0.3))
            for _ in range(rng.randint(0, 6))
        )
        atom = AggregateAtom(AggFunc.PROD, entries, rng.choice(list(Comparison)), 1)
        weights = [w for w, _ in entries]
        if atom._kernels is None:
            seen["none"] += 1
            continue
        seen["kernel"] += 1
        seen["kernel with a big weight"] += any(abs(w) >= 1 << 31 for w in weights)
        assert _products_fit(weights), entries
        atom._kernels.over(atom, atoms)  # building the tables raises nothing
    # both sides of the guard were drawn, and big weights passed it
    assert min(seen.values()) >= 20, seen
