"""Two-valued evaluation: literals, aggregate atoms, rule bodies, the
immediate consequence operator, and model / supported-model checks.

Conventions for the empty multiset: sum = 0, card = 0, prod = 1; min,
max and avg are undefined and any comparison on an undefined value is
false.  Aggregate values must stay inside the signed 64-bit range;
leaving it raises ArithmeticOverflowError instead of silently wrapping
or silently using big integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Sequence

from .errors import ArithmeticOverflowError
from .interp import Interpretation, InterpretationPair, enumerate_interval
from .syntax import AggFunc, AggregateAtom, BodyElement, Comparison, Literal, Program

__all__ = [
    "AggValue",
    "eval_multiset",
    "aggregate_value",
    "eval_aggregate",
    "literal_holds",
    "sat2_element",
    "sat2",
    "sat2_disjunction",
    "tp",
    "is_model",
    "is_supported_model",
    "aggregate_holds_everywhere",
]

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def checked_int(value: int, context: str = "aggregate value") -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise ArithmeticOverflowError(f"{context} {value} leaves the signed 64-bit range")
    return value


def checked_product(weights: Iterable[int]) -> int:
    """Product of the weights, checked after every factor."""
    result = 1
    for w in weights:
        result = checked_int(result * w, "product")
    return result


@dataclass(frozen=True)
class AggValue:
    """Result of an aggregate function; undefined only for min/max/avg of {}."""

    defined: bool
    value: int | Fraction | None = None

    UNDEFINED: ClassVar["AggValue"]

    @staticmethod
    def of(value: int | Fraction) -> "AggValue":
        return AggValue(True, value)

    def __str__(self) -> str:
        return str(self.value) if self.defined else "undefined"

    def compare(self, cmp: Comparison, bound: int) -> bool:
        return self.defined and cmp.holds(self.value, bound)


AggValue.UNDEFINED = AggValue(False)


def literal_holds(literal: Literal, i: Interpretation) -> bool:
    return (literal.atom in i.atoms) != literal.negated


def eval_multiset(entries: Sequence[tuple[int, Literal]], i: Interpretation) -> tuple[int, ...]:
    """Multiset of weights whose condition holds in i, entry order preserved."""
    atoms = i.atoms
    return tuple([w for w, lit in entries if (lit.atom in atoms) != lit.negated])


def aggregate_value(func: AggFunc, multiset: Sequence[int]) -> AggValue:
    if func is AggFunc.SUM:
        return AggValue.of(checked_int(sum(multiset), "sum"))
    if func is AggFunc.CARD:
        return AggValue.of(len(multiset))
    if func is AggFunc.PROD:
        return AggValue.of(checked_product(multiset))
    if not multiset:
        return AggValue.UNDEFINED
    if func is AggFunc.MIN:
        return AggValue.of(min(multiset))
    if func is AggFunc.MAX:
        return AggValue.of(max(multiset))
    # avg: exact rational, no rounding
    return AggValue.of(Fraction(checked_int(sum(multiset), "sum"), len(multiset)))


def eval_aggregate(atom: AggregateAtom, i: Interpretation) -> bool:
    value = aggregate_value(atom.func, eval_multiset(atom.entries, i))
    return value.compare(atom.cmp, atom.bound)


def sat2_element(element: BodyElement, i: Interpretation) -> bool:
    if isinstance(element, Literal):
        return literal_holds(element, i)
    return eval_aggregate(element, i)


def sat2(body: Sequence[BodyElement], i: Interpretation) -> bool:
    """A body (conjunction) holds iff every element holds."""
    return all(sat2_element(e, i) for e in body)


def sat2_disjunction(bodies: Iterable[Sequence[BodyElement]], i: Interpretation) -> bool:
    return any(sat2(body, i) for body in bodies)


def tp(program: Program, i: Interpretation) -> Interpretation:
    """Immediate consequence operator: heads of rules whose body holds in i."""
    fired = {rule.head for rule in program.rules if sat2(rule.body, i)}
    return i.with_atoms(fired)


def is_model(program: Program, i: Interpretation) -> bool:
    return all(rule.head in i.atoms or not sat2(rule.body, i) for rule in program.rules)


def is_supported_model(program: Program, i: Interpretation) -> bool:
    return tp(program, i).atoms == i.atoms


def aggregate_holds_everywhere(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    """True iff the aggregate holds at every Z in the pair's interval.

    The sweep only varies the aggregate's own condition atoms; all other
    atoms are irrelevant to its value.
    """
    pair.require_consistent()
    relevant = frozenset(atom.condition_atoms)
    return all(
        eval_aggregate(atom, z)
        for z in enumerate_interval(pair.lower, pair.upper, restrict=relevant)
    )
