"""Independent checkers for the benchmark's answers.

They share no code with `aggsem`: a small parser for the `.lp` files, a
two-valued evaluator (aggregate value, body, model, supported model),
the closed-form models of `chain(n)`, achievable aggregate values over
an interval, and a brute-force convexity test over chains X <= Y <= Z.
"""

from __future__ import annotations

import re
from fractions import Fraction

from gen import Agg, Lit, Prog, Rule

_INIT = {"sum": 0, "card": 0, "prod": 1, "min": None, "max": None, "avg": (0, 0)}


def _add(func: str, state, w: int):
    if func == "sum":
        return state + w
    if func == "card":
        return state + 1
    if func == "prod":
        return state * w
    if func == "min":
        return w if state is None else min(state, w)
    if func == "max":
        return w if state is None else max(state, w)
    return (state[0] + w, state[1] + 1)


def _value(func: str, state):
    """The aggregate value of a folded multiset; None when undefined."""
    if func == "avg":
        return None if state[1] == 0 else Fraction(state[0], state[1])
    return state


def compare(value, cmp: str, bound: int) -> bool:
    if value is None:
        return False
    return {
        "<": value < bound, "<=": value <= bound, ">": value > bound,
        ">=": value >= bound, "=": value == bound, "!=": value != bound,
    }[cmp]


def agg_value(agg: Agg, true_atoms) -> object:
    state = _INIT[agg.func]
    for w, lit in agg.entries:
        if (lit.atom in true_atoms) != lit.neg:
            state = _add(agg.func, state, w)
    return _value(agg.func, state)


def agg_holds(agg: Agg, true_atoms) -> bool:
    return compare(agg_value(agg, true_atoms), agg.cmp, agg.bound)


def body_holds(body, true_atoms) -> bool:
    for e in body:
        if isinstance(e, Lit):
            if (e.atom in true_atoms) == e.neg:
                return False
        elif not agg_holds(e, true_atoms):
            return False
    return True


def consequences(prog: Prog, true_atoms) -> frozenset:
    return frozenset(r.head for r in prog.rules if body_holds(r.body, true_atoms))


def is_model(prog: Prog, true_atoms) -> bool:
    return consequences(prog, true_atoms) <= frozenset(true_atoms)


def is_supported_model(prog: Prog, true_atoms) -> bool:
    return consequences(prog, true_atoms) == frozenset(true_atoms)


def chain_models(n: int) -> set[frozenset]:
    """Closed form: every a_i holds, and each i picks exactly one of b_i, c_i."""
    base = {f"a{i}" for i in range(n + 1)}
    return {
        frozenset(base | {(f"b{i}" if mask >> (i - 1) & 1 else f"c{i}") for i in range(1, n + 1)})
        for mask in range(1 << n)
    }


def achievable(agg: Agg, lower, upper) -> tuple[set, bool]:
    """Values the aggregate takes over every Z with lower <= Z <= upper,
    and whether an undefined value (min/max/avg of {}) occurs."""
    atoms = list(dict.fromkeys(lit.atom for _, lit in agg.entries))
    states = {_INIT[agg.func]}
    for a in atoms:
        branches = [a in lower] if (a in lower or a not in upper) else [True, False]
        nxt = set()
        for truth in branches:
            ws = [w for w, lit in agg.entries if lit.atom == a and truth != lit.neg]
            for s in states:
                for w in ws:
                    s = _add(agg.func, s, w)
                nxt.add(s)
        states = nxt
    values = {_value(agg.func, s) for s in states}
    return values - {None}, None in values


def ult_truth(agg: Agg, lower, upper) -> str:
    """'t' when the aggregate holds at every interval member, 'f' at none, else 'u'."""
    values, undefined = achievable(agg, lower, upper)
    holds = {compare(v, agg.cmp, agg.bound) for v in values} | ({False} if undefined else set())
    return "t" if holds == {True} else "f" if holds == {False} else "u"


def is_convex(agg: Agg) -> bool:
    """No X <= Y <= Z over the condition atoms with the atom true at X and Z, false at Y."""
    atoms = list(dict.fromkeys(lit.atom for _, lit in agg.entries))
    n = len(atoms)
    # each atom is in X, in Y \ X, in Z \ Y, or outside Z: 4^n chains
    for code in range(4 ** n):
        x, y, z = set(), set(), set()
        for i, a in enumerate(atoms):
            level = code >> (2 * i) & 3
            if level == 0:
                x.add(a)
            if level <= 1:
                y.add(a)
            if level <= 2:
                z.add(a)
        if agg_holds(agg, x) and agg_holds(agg, z) and not agg_holds(agg, y):
            return False
    return True


def leq_precision(a: tuple, b: tuple) -> bool:
    """(lower, upper) pairs: b is at least as precise as a."""
    return set(a[0]) <= set(b[0]) and set(b[1]) <= set(a[1])


# ---------------------------------------------------------------------------
# A parser for the example programs, independent of aggsem's
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s+|%[^\n]*|(:-|<=|>=|!=|<|>|=|-?\d+|[a-z][A-Za-z0-9_]*|#atoms|[{}.,:])")


def parse_lp(name: str, text: str) -> Prog:
    tokens = [m.group(1) for m in _TOKEN.finditer(text) if m.group(1)]
    if "".join(tokens) != re.sub(r"\s+|%[^\n]*", "", text):
        raise ValueError(f"{name}: unexpected characters")
    pos = 0
    atoms: dict[str, None] = {}

    def take(expected=None):
        nonlocal pos
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"{name}: expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def literal():
        neg = tokens[pos] == "not"
        if neg:
            take()
        atom = take()
        atoms.setdefault(atom)
        return Lit(atom, neg)

    def element():
        if tokens[pos] in _INIT and tokens[pos + 1] == "{":
            func = take()
            take("{")
            entries = []
            while tokens[pos] != "}":
                w = int(take())
                take(":")
                entries.append((w, literal()))
                if tokens[pos] == ",":
                    take()
            take("}")
            cmp = take()
            return Agg(func, tuple(entries), cmp, int(take()))
        return literal()

    rules = []
    while pos < len(tokens):
        if tokens[pos] == "#atoms":
            take()
            while tokens[pos] != ".":
                atom = take()
                if atom != ",":
                    atoms.setdefault(atom)
            take(".")
            continue
        head = take()
        atoms.setdefault(head)
        body = []
        if tokens[pos] == ":-":
            take()
            body.append(element())
            while tokens[pos] == ",":
                take()
                body.append(element())
        take(".")
        rules.append(Rule(head, tuple(body)))
    return Prog(name, tuple(atoms), tuple(rules))
