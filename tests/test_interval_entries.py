"""Interval entries: a kernel answers each restricted pair once, from an
entry filled on first read (`eval2._entry_truth`, `eval2._kernel_range`),
and `exact_bounds` shares one `Bounds` per restricted pair.

On the outcome fingerprint's corpus, ±2^62 variants included, every
relation that reads an entry gives, at every consistent pair, the value
or the type and message of the first error, and the interval expansions,
of the kernel-free paths (`KERNEL_ATOMS` patched to −1, as in
`tests/test_kernels.py`).  Each pair is asked twice, forward and then in
reverse order, so that an entry stored under a wrong key would answer
for another pair.  No kernel holds more than 3^k entries of a kind, an
atom asked over a second universe answers for that universe, even when
another thread replaces its kernel between any two steps, and a shared
`Bounds` keeps the value type of its own atom."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import aggsem.eval2 as eval2
from aggsem import parse_program
from aggsem.bounds import exact_bounds
from aggsem.interp import InterpretationPair
from aggsem.ternary import SemanticsId, all_consistent_pairs, sat3, sat3_body, truth3

from .test_kernels import _counted

ROOT = Path(__file__).resolve().parent.parent
TAGS = ("ult", "bnd", "mr", "triv")


def _outcomes_tool():
    spec = importlib.util.spec_from_file_location("outcomes", ROOT / "tools" / "outcomes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shown(result):
    """A `Bounds` as its str and repr, whose AggValues show the value's
    type; any other value or error as itself."""
    value, expansions = result
    if isinstance(value, tuple):  # an error's type and message
        return result
    return (str(value), repr(value)), expansions


def _calls(program):
    """Every call that reads an entry, as a function of the pair: `sat3`
    under each tag and `truth3` under those with a truth function for
    each aggregate atom, `sat3_body("ultimate")` on each head's `Bodies`,
    and `exact_bounds` of each aggregate atom."""
    calls = []
    for atom in program.aggregate_atoms():
        for tag in TAGS:
            calls.append(lambda pair, atom=atom, tag=tag: sat3(tag, atom, pair))
            if SemanticsId(tag).has_truth_function:
                calls.append(lambda pair, atom=atom, tag=tag: truth3(tag, atom, pair))
        calls.append(lambda pair, atom=atom: exact_bounds(atom, pair))
    for _, bodies in program.entries:
        calls.append(lambda pair, bodies=bodies: sat3_body("ultimate", bodies, pair))
    return calls


def _answers(program, passes):
    """The calls' outcomes at every consistent pair, per pass: forward,
    then in reverse order."""
    pairs = all_consistent_pairs(program.universe)
    calls = _calls(program)
    found = []
    for order in passes:
        found.append(
            [_shown(_counted(lambda: call(pair))) for pair in order(pairs) for call in calls]
        )
    return found


def _slots(program):
    slots = [atom._kernels for atom in program.aggregate_atoms()]
    slots += [bodies._kernels for _, bodies in program.entries]
    return [slot for slot in slots if slot is not None and slot.built[1] is not None]


def test_entries_answer_as_the_kernel_free_paths_on_the_fingerprint_corpus(monkeypatch):
    tool = _outcomes_tool()
    texts = tool.corpus(tool.FINGERPRINT_COUNT, tool.FINGERPRINT_SKIPS)
    forward, backward = (lambda pairs: pairs), (lambda pairs: pairs[::-1])
    read, entries = 0, 0
    for name, text in texts:
        program = parse_program(text)  # each run parses afresh: an atom decides once
        ours = _answers(program, (forward, backward))
        for slot in _slots(program):
            _, kernel, truths, ranges, _ = slot.built
            most = 3 ** bin(kernel.cm).count("1")
            assert len(truths) <= most and len(ranges) <= most, name
            read += 1
            entries += len(truths) + len(ranges)
        with monkeypatch.context() as patch:
            patch.setattr(eval2, "KERNEL_ATOMS", -1)
            reference = parse_program(text)
            assert not _slots(reference)
            (expected,) = _answers(reference, (forward,))
        assert ours[0] == expected, name
        size = len(_calls(program))
        reversed_expected = [
            outcome
            for k in reversed(range(0, len(expected), size))
            for outcome in expected[k : k + size]
        ]
        assert ours[1] == reversed_expected, name
    assert read >= 100 and entries >= 1000, (read, entries)


def test_an_atom_asked_over_a_second_universe_answers_for_it(monkeypatch):
    text = "h :- sum{1:a, 2:b, -1:not c} >= 2.\ng :- avg{2:a, 4:c} < 3.\nk :- max{1:b, 3:c} != 3."
    universes = (("a", "b", "c", "h", "g", "k"), ("c", "k", "b", "a"), ("b", "h"))
    pairs = [all_consistent_pairs(universe) for universe in universes]

    def run():
        program = parse_program(text)
        atoms = program.aggregate_atoms()
        # each universe twice, so the second visit finds the table of another
        return [
            _shown(_counted(lambda: call(atom, pair)))
            for universe_pairs in pairs + pairs
            for pair in universe_pairs
            for atom in atoms
            for call in (
                lambda atom, pair: sat3("ult", atom, pair),
                lambda atom, pair: sat3("mr", atom, pair),
                lambda atom, pair: truth3("bnd", atom, pair),
                exact_bounds,
            )
        ]

    ours = run()
    with monkeypatch.context() as patch:
        patch.setattr(eval2, "KERNEL_ATOMS", -1)
        expected = run()
    assert ours == expected


class _Overwritten(eval2.KernelSlot):
    """A kernel slot whose every write another thread overwrites at once
    with what it built over another universe, `other`: the worst order
    in which two threads can ask one atom about pairs over two universes."""

    __slots__ = ("other",)

    @property
    def built(self):
        return self.other

    @built.setter
    def built(self, value):
        pass


def test_a_kernel_read_over_one_universe_never_answers_from_another(monkeypatch):
    # the same atoms in two orders: every kernel bit moves, so a kernel or
    # an entry read over the other universe answers wrongly
    text = "h :- sum{1:a, 2:b, -1:not c} >= 2.\ng :- avg{2:a, 4:c} < 3.\nk :- max{1:b, 3:c} != 3."
    asked, other = ("a", "b", "c", "h", "g", "k"), ("k", "c", "g", "b", "h", "a")
    calls = (
        lambda atom, pair: sat3("ult", atom, pair),
        lambda atom, pair: sat3("mr", atom, pair),
        lambda atom, pair: truth3("bnd", atom, pair),
        exact_bounds,
    )

    def answers(atoms):
        pairs = all_consistent_pairs(asked)
        return [repr(call(atom, pair)) for pair in pairs for atom in atoms for call in calls]

    with monkeypatch.context() as patch:
        patch.setattr(eval2, "KERNEL_ATOMS", -1)
        expected = answers(parse_program(text).aggregate_atoms())
    atoms = parse_program(text).aggregate_atoms()
    for atom in atoms:
        slot = _Overwritten(atom._kernels.build)
        slot.other = atom._kernels.read(atom, other)
        vars(atom)["_kernels"] = slot
    assert answers(atoms) == expected


def test_shared_bounds_keep_their_type(monkeypatch):
    # over the same condition atom and pair, both ranges are exactly [2, 2]:
    # avg's value is the Fraction 2, sum's the int 2
    text = "h :- avg{2:p} >= 0.\ng :- sum{2:p} >= 0."
    universe = ("h", "g", "p")
    pair = InterpretationPair.of(universe, ["p"], ["p", "h"])

    def bounds(order):
        avg, total = parse_program(text).aggregate_atoms()
        atoms = (avg, total) if order == "avg first" else (total, avg)
        found = {atom.func.value: exact_bounds(atom, pair) for atom in atoms}
        return {
            func: (str(b), repr(b), type(b.lb.value), type(b.ub.value))
            for func, b in sorted(found.items())
        }

    with monkeypatch.context() as patch:
        patch.setattr(eval2, "KERNEL_ATOMS", -1)
        expected = bounds("avg first")
    assert expected["avg"][2:] == (Fraction, Fraction)
    assert expected["sum"][2:] == (int, int)
    for order in ("avg first", "sum first", "avg first"):
        assert bounds(order) == expected, order


def test_exact_bounds_shares_one_bounds_per_restricted_pair():
    atom = parse_program("h :- sum{1:a, 2:b} >= 2.").aggregate_atoms()[0]
    universe = ("h", "a", "b", "c")
    # the same restriction to {a, b}: h and c differ
    first = InterpretationPair.of(universe, ["a"], ["a", "b"])
    second = InterpretationPair.of(universe, ["a", "h"], ["a", "b", "c", "h"])
    other = InterpretationPair.of(universe, [], ["a", "b"])
    assert exact_bounds(atom, first) is exact_bounds(atom, second)
    assert exact_bounds(atom, other) is not exact_bounds(atom, first)
    assert str(exact_bounds(atom, first)) == "[1, 3]" and str(exact_bounds(atom, other)) == "[0, 3]"
