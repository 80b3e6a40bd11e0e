"""AST, parser and pretty-printer for ground aggregate programs.

Surface syntax (one statement per `.`; `%` starts a comment):

    #atoms a, b, c.                     optional universe enlargement
    head :- elem, ..., elem.            rule (empty body: `head.`)
    elem  = literal | aggregate
    literal = atom | not atom
    aggregate = func{w:lit, ...} cmp k  func in sum/prod/card/min/max/avg

Atoms match [a-z][A-Za-z0-9_]*; weights and bounds are integers.  The
universe of a parsed program is the set of atoms in textual
first-occurrence order, including a single optional `#atoms` declaration.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Union

from .errors import ArithmeticOverflowError, ParseError, TooLargeError, UniverseMismatchError
from .interp import Interpretation, Universe

__all__ = [
    "AggFunc",
    "Comparison",
    "Literal",
    "AggregateAtom",
    "BodyElement",
    "Rule",
    "Bodies",
    "Program",
    "parse_program",
    "parse_interpretation",
    "combine_rules_per_head",
]


class AggFunc(Enum):
    SUM = "sum"
    PROD = "prod"
    CARD = "card"
    MIN = "min"
    MAX = "max"
    AVG = "avg"


class Comparison(Enum):
    """A comparison of an aggregate's value with its bound.  The value is
    the surface symbol; each member carries its test, `holds(value,
    bound)`, an `operator` builtin kept on the member so evaluation needs
    no lookup keyed by the enum."""

    def __new__(cls, symbol, holds):
        member = object.__new__(cls)
        member._value_ = symbol
        member.holds = holds
        return member

    LT = ("<", operator.lt)
    LE = ("<=", operator.le)
    GT = (">", operator.gt)
    GE = (">=", operator.ge)
    EQ = ("=", operator.eq)
    NE = ("!=", operator.ne)


@dataclass(frozen=True)
class Literal:
    atom: str
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else self.atom

    def negate(self) -> "Literal":
        return Literal(self.atom, not self.negated)


@dataclass(frozen=True)
class AggregateAtom:
    func: AggFunc
    entries: tuple[tuple[int, Literal], ...]
    cmp: Comparison
    bound: int

    def __str__(self) -> str:
        inner = ", ".join(f"{w}:{lit}" for w, lit in self.entries)
        return f"{self.func.value}{{{inner}}} {self.cmp.value} {self.bound}"

    # cached per atom, outside the fields, so eq, hash and repr are unchanged
    @cached_property
    def conditions(self) -> tuple[Literal, ...]:
        """Distinct condition literals, first occurrence first."""
        return tuple(dict.fromkeys(lit for _, lit in self.entries))

    @cached_property
    def condition_atoms(self) -> tuple[str, ...]:
        """Distinct atoms occurring in conditions, first occurrence first."""
        return tuple(dict.fromkeys(lit.atom for _, lit in self.entries))

    @cached_property
    def _branch_weights(self) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Per condition atom, first occurrence first: the weights of the
        entries whose condition holds when the atom is false (index 0)
        and when it is true (index 1), each in entry order.  The compiled
        interval sweep of `eval2` and `bounds.exact_bounds` read them."""
        branches: dict[str, tuple[list[int], list[int]]] = {
            a: ([], []) for a in self.condition_atoms
        }
        for weight, lit in self.entries:
            branches[lit.atom][not lit.negated].append(weight)
        return {a: (tuple(off), tuple(on)) for a, (off, on) in branches.items()}

    def __reduce__(self):
        """Pickle the fields only: the cached evaluator is a closure, which
        pickle cannot carry, and every cached value is built again on
        first use."""
        return AggregateAtom, (self.func, self.entries, self.cmp, self.bound)

    @cached_property
    def _evaluators(self):
        """The atom's slot of two-valued evaluators (`eval2.atom_evaluators`):
        its truth as a function of a mask, built once per universe."""
        from .eval2 import atom_evaluators

        return atom_evaluators(self)

    @cached_property
    def _kernels(self):
        """The atom's bitmask kernel slot (`eval2.atom_kernels`), None
        for an atom that gets no kernel; decided once per atom."""
        from .eval2 import atom_kernels

        return atom_kernels(self)

    @cached_property
    def _convex(self) -> bool:
        """`ternary.is_convex` of the atom, False when that raises: above
        `MAX_CONVEXITY_ATOMS` condition atoms, or when some value leaves
        the signed 64-bit range.  The flp stable check reads it."""
        from .ternary import is_convex

        try:
            return is_convex(self)
        except (TooLargeError, ArithmeticOverflowError):
            return False


BodyElement = Union[Literal, AggregateAtom]


@dataclass(frozen=True)
class Rule:
    head: str
    body: tuple[BodyElement, ...] = ()

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(e) for e in self.body)}."

    @property
    def has_aggregates(self) -> bool:
        return any(isinstance(e, AggregateAtom) for e in self.body)


def _element_atoms(element: BodyElement) -> Iterator[str]:
    if isinstance(element, Literal):
        yield element.atom
    else:
        for _, lit in element.entries:
            yield lit.atom


def _first_occurrence_universe(rules: Iterable[Rule]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for rule in rules:
        seen.setdefault(rule.head)
        for element in rule.body:
            for atom in _element_atoms(element):
                seen.setdefault(atom)
    return tuple(seen)


class Bodies(tuple):
    """One head's rule bodies, in source order: a tuple of bodies that
    compares, hashes and prints as one, and the one form in which the
    relations take a disjunction of bodies.  Outside its items it keeps
    the atoms the bodies mention and the bitmask kernel of the
    disjunction (`eval2.head_kernels`), so every `ultimate` test of the
    head through the program's `entries` reuses them."""

    @cached_property
    def atoms(self) -> tuple[str, ...]:
        """The atoms the bodies mention, first occurrence first: a
        literal's atom and an aggregate's condition atoms."""
        return tuple(dict.fromkeys(a for body in self for e in body for a in _element_atoms(e)))

    @cached_property
    def _kernels(self):
        from .eval2 import head_kernels

        return head_kernels(self)

    def __reduce__(self):
        """Pickle the bodies only; cached values are built again on first use."""
        return Bodies, (tuple(self),)


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...]
    universe: tuple[str, ...]

    def __post_init__(self) -> None:
        universe = self.universe
        known = universe.bits.keys() if isinstance(universe, Universe) else set(universe)
        if len(known) != len(universe):
            raise ValueError("universe contains duplicate atoms")
        mentioned = set()
        for rule in self.rules:
            mentioned.add(rule.head)
            for element in rule.body:
                if element.__class__ is Literal:
                    mentioned.add(element.atom)
                else:
                    mentioned.update(element.condition_atoms)
        if not known >= mentioned:
            missing = [a for a in _first_occurrence_universe(self.rules) if a not in known]
            raise ValueError(f"universe is missing atoms: {', '.join(missing)}")

    def __str__(self) -> str:
        lines = []
        if self.universe and self.universe != _first_occurrence_universe(self.rules):
            lines.append(f"#atoms {', '.join(self.universe)}.")
        lines.extend(str(rule) for rule in self.rules)
        return "\n".join(lines)

    @cached_property  # read at every stable check and least fixpoint
    def is_aggregate_free(self) -> bool:
        return not any(rule.has_aggregates for rule in self.rules)

    @property
    def heads(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(rule.head for rule in self.rules))

    def body_elements(self) -> tuple[BodyElement, ...]:
        """Distinct body elements across all rules, source order."""
        return tuple(dict.fromkeys(e for rule in self.rules for e in rule.body))

    def aggregate_atoms(self) -> tuple[AggregateAtom, ...]:
        return tuple(e for e in self.body_elements() if isinstance(e, AggregateAtom))

    @cached_property  # outside the fields, like AggregateAtom.conditions
    def entries(self) -> tuple[tuple[str, Bodies], ...]:
        """The rule bodies grouped per head: one entry per head atom, first
        occurrence first, with the bodies of all its rules in source order."""
        grouped: dict[str, list[tuple[BodyElement, ...]]] = {}
        for rule in self.rules:
            grouped.setdefault(rule.head, []).append(rule.body)
        return tuple((head, Bodies(bodies)) for head, bodies in grouped.items())

    @cached_property
    def dependents(self) -> dict[str, tuple[int, ...]]:
        """The dependency index: per atom, the positions in `entries` of
        the heads whose bodies mention it, ascending.  A literal mentions
        its atom and an aggregate its condition atoms, negated or not; an
        atom no body mentions has no key."""
        found: dict[str, list[int]] = {}
        for position, (_, bodies) in enumerate(self.entries):
            for atom in bodies.atoms:
                found.setdefault(atom, []).append(position)
        return {atom: tuple(positions) for atom, positions in found.items()}

    @property
    def by_head(self) -> dict[str, Bodies]:
        return dict(self.entries)


def combine_rules_per_head(program: Program) -> Program:
    """The program itself, whose per-head grouping is cached as `entries`."""
    return program


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_AGG_NAMES = {f.value for f in AggFunc}
_CMP_VALUES = {c.value: c for c in Comparison}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<arrow>:-)
    | (?P<cmp><=|>=|!=|<|>|=)
    | (?P<int>-?\d+)
    | (?P<name>[a-z][A-Za-z0-9_]*)
    | (?P<directive>\#[a-z]+)
    | (?P<punct>[{}.,:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    column: int


_EOF = "end of input"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = match.lastgroup or ""
        value = match.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rindex("\n") + 1
        pos = match.end()
    tokens.append(_Token("eof", _EOF, line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.universe: dict[str, None] = {}
        self.declared = False

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def error(self, message: str, token: _Token | None = None) -> ParseError:
        token = token or self.peek()
        return ParseError(f"{message} (found {token.value!r})", token.line, token.column)

    def expect(self, kind: str, value: str | None = None, what: str | None = None) -> _Token:
        token = self.peek()
        if token.kind != kind or (value is not None and token.value != value):
            raise self.error(f"expected {what or value or kind}")
        return self.advance()

    def record_atom(self, name: str) -> str:
        self.universe.setdefault(name)
        return name

    def parse(self) -> Program:
        rules: list[Rule] = []
        while self.peek().kind != "eof":
            token = self.peek()
            if token.kind == "directive":
                self.parse_declaration()
            elif token.kind == "name":
                rules.append(self.parse_rule())
            else:
                raise self.error("expected a rule or '#atoms' declaration")
        return Program(rules=tuple(rules), universe=Universe(self.universe))

    def parse_declaration(self) -> None:
        token = self.advance()
        if token.value != "#atoms":
            raise self.error(f"unknown directive {token.value!r}", token)
        if self.declared:
            raise ParseError("duplicate '#atoms' declaration", token.line, token.column)
        self.declared = True
        self.record_atom(self.expect("name", what="an atom name").value)
        while self.peek().value == ",":
            self.advance()
            self.record_atom(self.expect("name", what="an atom name").value)
        self.expect("punct", ".", what="'.'")

    def parse_rule(self) -> Rule:
        head = self.advance()
        if head.value == "not":
            raise self.error("rule head must be a single atom", head)
        self.record_atom(head.value)
        token = self.peek()
        if token.value == ".":
            self.advance()
            return Rule(head=head.value)
        if token.kind == "name":
            raise self.error("rule head must be a single atom")
        self.expect("arrow", what="':-' or '.'")
        body = [self.parse_element()]
        while self.peek().value == ",":
            self.advance()
            body.append(self.parse_element())
        self.expect("punct", ".", what="',' or '.'")
        return Rule(head=head.value, body=tuple(body))

    def parse_element(self) -> BodyElement:
        token = self.peek()
        if token.kind != "name":
            raise self.error("expected a literal or aggregate atom")
        if token.value in _AGG_NAMES and self.peek(1).value == "{":
            return self.parse_aggregate()
        return self.parse_literal(condition=False)

    def parse_literal(self, condition: bool) -> Literal:
        negated = False
        token = self.expect("name", what="a literal")
        if token.value == "not":
            negated = True
            token = self.expect("name", what="an atom name")
            if token.value == "not":
                raise self.error("'not' is a reserved word, not an atom", token)
        if condition and token.value in _AGG_NAMES and self.peek().value == "{":
            raise ParseError(
                "aggregate condition must be a literal, not another aggregate",
                token.line,
                token.column,
            )
        return Literal(atom=self.record_atom(token.value), negated=negated)

    def parse_aggregate(self) -> AggregateAtom:
        func = AggFunc(self.advance().value)
        self.expect("punct", "{", what="'{'")
        entries: list[tuple[int, Literal]] = []
        if self.peek().value != "}":
            entries.append(self.parse_entry())
            while self.peek().value == ",":
                self.advance()
                entries.append(self.parse_entry())
        self.expect("punct", "}", what="',' or '}'")
        cmp_token = self.expect("cmp", what="a comparison operator")
        bound = self.expect("int", what="an integer bound")
        return AggregateAtom(
            func=func,
            entries=tuple(entries),
            cmp=_CMP_VALUES[cmp_token.value],
            bound=int(bound.value),
        )

    def parse_entry(self) -> tuple[int, Literal]:
        weight = self.expect("int", what="an integer weight")
        self.expect("punct", ":", what="':'")
        return int(weight.value), self.parse_literal(condition=True)


def parse_program(text: str) -> Program:
    """Parse program text into an AST; raise ParseError with line:column."""
    return _Parser(text).parse()


def parse_interpretation(text: str, universe: tuple[str, ...]):
    """Parse a comma-separated atom list into an Interpretation over `universe`."""
    atoms = []
    stripped = text.strip()
    if stripped:
        for part in stripped.split(","):
            name = part.strip()
            if name not in universe:
                raise UniverseMismatchError(f"unknown atom {name!r}")
            atoms.append(name)
    return Interpretation.of(universe, atoms)
