"""Seeded benchmark inputs, in the benchmark's own AST, rendered to the
program text that `aggsem.syntax.parse_program` reads.

Nothing here imports `aggsem`: a change to the package cannot change the
inputs it is measured on.  The same seed gives the same programs.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

FUNCS = ("sum", "prod", "card", "min", "max", "avg")
CMPS = ("<", "<=", ">", ">=", "=", "!=")


class Lit(NamedTuple):
    atom: str
    neg: bool = False

    def __str__(self) -> str:
        return f"not {self.atom}" if self.neg else self.atom


class Agg(NamedTuple):
    func: str
    entries: tuple[tuple[int, Lit], ...]
    cmp: str
    bound: int

    def __str__(self) -> str:
        # Same spelling as aggsem prints an aggregate, so report keys match.
        inner = ", ".join(f"{w}:{lit}" for w, lit in self.entries)
        return f"{self.func}{{{inner}}} {self.cmp} {self.bound}"


class Rule(NamedTuple):
    head: str
    body: tuple = ()

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(e) for e in self.body)}."


class Prog(NamedTuple):
    name: str
    atoms: tuple[str, ...]
    rules: tuple[Rule, ...]

    def aggregates(self) -> list[Agg]:
        return list(dict.fromkeys(e for r in self.rules for e in r.body if isinstance(e, Agg)))


def render(prog: Prog) -> str:
    """Program text; the `#atoms` line fixes the universe and its order."""
    lines = [f"#atoms {', '.join(prog.atoms)}."]
    lines.extend(str(rule) for rule in prog.rules)
    return "\n".join(lines) + "\n"


def chain(n: int) -> Prog:
    """a_i :- sum{1:a_{i-1}, 1:b_i} >= 1, with b_i / c_i an even loop: 3n+1 atoms, 2^n models."""
    atoms = ["a0"]
    rules = [Rule("a0")]
    for i in range(1, n + 1):
        atoms += [f"a{i}", f"b{i}", f"c{i}"]
        rules.append(Rule(f"a{i}", (Agg("sum", ((1, Lit(f"a{i - 1}")), (1, Lit(f"b{i}"))), ">=", 1),)))
        rules.append(Rule(f"b{i}", (Lit(f"c{i}", True),)))
        rules.append(Rule(f"c{i}", (Lit(f"b{i}", True),)))
    return Prog(f"chain{n}", tuple(atoms), tuple(rules))


def _weight(rng: random.Random, func: str) -> int:
    if func == "prod":
        return rng.choice((-2, -1, 1, 2, 3))
    return rng.randint(-3, 4)


def random_program(rng: random.Random, name: str, n_atoms: int, n_heads: int,
                   funcs: tuple[str, ...]) -> Prog:
    """One rule per entry of `funcs`, over x0..x{n_atoms-1}; heads cycle through the first n_heads.

    Each body is an aggregate of three entries (about a third of
    conditions negated) followed by one literal.  Every candidate thus
    evaluates every rule's aggregate, so the cost per candidate hardly
    depends on the seed: the scan visits 2^n_heads candidates.
    """
    atoms = tuple(f"x{i}" for i in range(n_atoms))
    rules = []
    for i, func in enumerate(funcs):
        head = atoms[i % n_heads]
        entries = tuple(
            (_weight(rng, func), Lit(rng.choice(atoms), rng.random() < 0.35))
            for _ in range(3)
        )
        body = (Agg(func, entries, rng.choice(CMPS), rng.randint(-1, 4)),
                Lit(rng.choice(atoms), rng.random() < 0.4))
        rules.append(Rule(head, body))
    return Prog(name, atoms, tuple(rules))


def small_program(rng: random.Random, name: str, n_atoms: int, n_rules: int,
                  funcs: tuple[str, ...], negated: bool) -> Prog:
    """An `analyze`/`verify` input over p0..p{n_atoms-1}: rule i is
    `p_i :- funcs[i]{w:l, w:l} cmp k, l` over two distinct condition atoms
    (`negated` allows negated conditions).
    The shape is fixed; the seed picks functions, weights, comparisons and atoms."""
    atoms = tuple(f"p{i}" for i in range(n_atoms))
    rules = []
    for i in range(n_rules):
        func = funcs[i % len(funcs)]
        entries = tuple(
            (_weight(rng, func), Lit(atom, negated and rng.random() < 0.35))
            for atom in rng.sample(atoms, 2)
        )
        body = (Agg(func, entries, rng.choice(CMPS), rng.randint(-1, 3)),
                Lit(rng.choice(atoms), rng.random() < 0.4))
        rules.append(Rule(atoms[i % n_atoms], body))
    return Prog(name, atoms, tuple(rules))


def _bound(rng: random.Random, cmp: str, target: str, values: set) -> int | None:
    """An integer bound under which `cmp` holds for all ('t') or none ('f') of `values`."""
    lo, hi = math.floor(min(values)), math.ceil(max(values))
    if cmp in ("=", "!="):
        if (cmp == "=") != (target == "f"):
            return None
        gaps = [k for k in range(lo - 1, hi + 2) if k not in values]
        return rng.choice(gaps)
    shift = rng.randint(0, 2)
    below = {"<": lo - shift, "<=": lo - 1 - shift, ">": hi + shift, ">=": hi + 1 + shift}
    above = {"<": hi + 1 + shift, "<=": hi + shift, ">": lo - 1 - shift, ">=": lo - shift}
    return (below if target == "f" else above)[cmp]


def wide_program(rng: random.Random, name: str, k: int, func: str, cmp: str, target: str,
                 achievable) -> Prog:
    """h :- func{w1:c1, ..., wk:ck} cmp bound, where each c_i / d_i is an even loop.

    The bound makes the aggregate hold at every ('t') or at no ('f')
    interpretation of the c atoms.  The interval sweeps then visit all
    2^k members whatever the seed, where a mixed aggregate would stop at
    a seed-dependent first witness.  `achievable(agg)` gives the values
    the aggregate can take and whether it can be undefined.
    """
    atoms = tuple(f"c{i}" for i in range(1, k + 1)) + tuple(f"d{i}" for i in range(1, k + 1)) + ("h",)
    entries = tuple((_weight(rng, func), Lit(f"c{i}", rng.random() < 0.3)) for i in range(1, k + 1))
    values, undefined = achievable(Agg(func, entries, cmp, 0))
    if target == "t" and undefined:
        raise ValueError(f"{name}: {func} can be undefined, so it cannot hold everywhere")
    bound = _bound(rng, cmp, target, values)
    if bound is None:
        raise ValueError(f"{name}: no bound makes {func} {cmp} hold {'everywhere' if target == 't' else 'nowhere'}")
    rules = [Rule("h", (Agg(func, entries, cmp, bound),))]
    for i in range(1, k + 1):
        rules.append(Rule(f"c{i}", (Lit(f"d{i}", True),)))
        rules.append(Rule(f"d{i}", (Lit(f"c{i}", True),)))
    return Prog(name, atoms, tuple(rules))
