"""The three workloads: seeded inputs, the calls timed on them, and the
checks of every answer against the benchmark's own checkers.

A workload is built in three steps that set-up times: generate its
programs from the seed, render them to text and parse the text with
`aggsem.syntax.parse_program`.  `tasks` is one round of calls, run in
a closed loop one at a time; `check` takes the first round's outputs
and returns a list of errors (empty when every answer is right).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import aggsem.cli as cli
import aggsem.fixpoints as fixpoints
import aggsem.interp as interp
import aggsem.oracle as oracle
import aggsem.syntax as syntax

import checkers as ck
import gen

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


class Task(NamedTuple):
    label: str
    call: Callable[[], object]


def _atoms(interpretation) -> frozenset:
    return frozenset(interpretation.atoms)


def _pair(pair) -> tuple[frozenset, frozenset]:
    return frozenset(pair.lower.atoms), frozenset(pair.upper.atoms)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.progs: list[gen.Prog] = self.generate(random.Random(seed))
        # example programs are measured on their own text, generated ones on their rendering
        self.texts = {p.name: (PROGRAMS / p.name).read_text(encoding="utf-8") if p.name.endswith(".lp")
                      else gen.render(p) for p in self.progs}
        self.parsed = {name: syntax.parse_program(text) for name, text in self.texts.items()}
        self.tasks: list[Task] = self.make_tasks(self.progs)

    def generate(self, rng: random.Random) -> list[gen.Prog]:
        raise NotImplementedError

    def make_tasks(self, progs: list[gen.Prog]) -> list[Task]:
        raise NotImplementedError

    def warmup_tasks(self) -> list[Task]:
        raise NotImplementedError

    def check(self, outputs: list) -> list[str]:
        raise NotImplementedError

    def plant(self, outputs: list) -> list:
        """A copy of `outputs` with one planted wrong answer, which `check` must reject."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# stable_search
# ---------------------------------------------------------------------------

SEMS_ALL = ("triv", "bnd", "ult", "ultimate", "mr")
# flp needs 13 s on the 16-atom chain, and its cost on random programs
# swings with their number of models, so gz and flp run on small programs only
SEMS_SMALL = ("gz", "flp")
LADDER = ("triv", "bnd", "ult", "ultimate")
# (atoms, head atoms, programs, with gz and flp): the scan visits 2^heads candidates.
# The counts put the median inside the 40 calls on 12-atom programs and the
# 90th percentile inside the 12 calls on chain(4) and chain(5), so neither
# sits on the edge between two groups of calls of different cost.
RANDOM_SLOTS = ((10, 8, 3, True), (12, 9, 8, False), (14, 10, 2, False))
CHAINS = ((3, True), (4, True), (5, False))  # 10, 13 and 16 atoms


class StableSearch(Workload):
    name = "stable_search"

    def generate(self, rng):
        progs, self.small = [], set()
        for n, small in CHAINS:
            progs.append(gen.chain(n))
            if small:
                self.small.add(progs[-1].name)
        for n_atoms, n_heads, count, small in RANDOM_SLOTS:
            for j in range(count):
                funcs = tuple(gen.FUNCS[(i + j) % 6] for i in range(n_atoms))
                progs.append(gen.random_program(rng, f"r{n_atoms}_{j}", n_atoms, n_heads, funcs))
                if small:
                    self.small.add(progs[-1].name)
        return progs

    def sems(self, prog):
        return SEMS_ALL + (SEMS_SMALL if prog.name in self.small else ())

    def make_tasks(self, progs):
        return [
            Task(f"{sem} {p.name}",
                 lambda sem=sem, program=self.parsed[p.name]: fixpoints.stable_enumerate(sem, program))
            for p in progs
            for sem in self.sems(p)
        ]

    def warmup_tasks(self):
        program = syntax.parse_program(gen.render(gen.chain(1)))
        return [Task(f"{sem} chain1", lambda sem=sem: fixpoints.stable_enumerate(sem, program))
                for sem in SEMS_ALL + SEMS_SMALL]

    def _by_program(self, outputs):
        found = {}
        for task, out in zip(self.tasks, outputs):
            sem, name = task.label.split()
            found.setdefault(name, {})[sem] = out
        return found

    def check(self, outputs):
        errors = []
        found = self._by_program(outputs)
        for prog in self.progs:
            program = self.parsed[prog.name]
            models = {sem: [_atoms(m) for m in found[prog.name][sem]] for sem in self.sems(prog)}
            sets = {sem: set(ms) for sem, ms in models.items()}
            for sem, ms in models.items():
                if len(ms) != len(sets[sem]):
                    errors.append(f"{prog.name} {sem}: a model is listed twice")
                test = ck.is_model if sem == "flp" else ck.is_supported_model
                for m in ms:
                    if not test(prog, m):
                        errors.append(f"{prog.name} {sem}: {sorted(m)} fails the model test")
            if prog.name.startswith("chain"):
                expected = ck.chain_models(int(prog.name[5:]))
                errors += [f"{prog.name} {sem}: not the 2^n closed-form models"
                           for sem in sets if sets[sem] != expected]
            for less, more in zip(LADDER, LADDER[1:]):
                if not sets[less] <= sets[more]:
                    errors.append(f"{prog.name}: {less} models are not all {more} models")
            for sem in SEMS_SMALL:
                if sem in sets:
                    reference = {_atoms(m) for m in oracle.reduct_stable_models(sem, program)}
                    if sets[sem] != reference:
                        errors.append(f"{prog.name} {sem}: differs from the reduct construction")
            for sem in ("triv", "bnd", "ult"):
                lower, upper = _pair(fixpoints.well_founded(sem, program).pair)
                if any(not lower <= m <= upper for m in sets[sem]):
                    errors.append(f"{prog.name} {sem}: a model lies outside the well-founded pair")
        return errors

    def plant(self, outputs):
        """Drop one model of the first chain under ult."""
        planted = list(outputs)
        i = next(i for i, t in enumerate(self.tasks) if t.label == f"ult chain{CHAINS[0][0]}")
        planted[i] = planted[i][1:]
        return planted


# ---------------------------------------------------------------------------
# fixpoint_sweep
# ---------------------------------------------------------------------------

# (free choice atoms, function, comparison, holds everywhere 't' or nowhere 'f'):
# every function and every comparison once.  min/max/avg can be undefined
# (all conditions false), so they cannot hold everywhere.
WIDE_SLOTS = (
    (10, "sum", "!=", "t"),
    (14, "prod", "=", "f"),
    (12, "card", ">=", "f"),
    (12, "min", "<", "f"),
    (10, "max", "<=", "f"),
    (8, "avg", ">", "f"),
)
FIXPOINT_SEMS = ("ult", "bnd", "triv")
WIDE_FILE = "wide_aggregate_18.lp"


class FixpointSweep(Workload):
    name = "fixpoint_sweep"

    def generate(self, rng):
        progs = [
            gen.wide_program(rng, f"w{k}_{func}", k, func, cmp, target,
                             lambda agg: ck.achievable(agg, set(), {lit.atom for _, lit in agg.entries}))
            for k, func, cmp, target in WIDE_SLOTS
        ]
        return progs + [ck.parse_lp(WIDE_FILE, (PROGRAMS / WIDE_FILE).read_text(encoding="utf-8"))]

    @staticmethod
    def _expansions(fn):
        """Calls fn; returns its result and the interval expansions it made."""
        def call():
            before = interp.interval_expansion_count()
            result = fn()
            return result, interp.interval_expansion_count() - before
        return call

    def _program_tasks(self, name, program):
        tasks = []
        for sem in FIXPOINT_SEMS:
            tasks.append(Task(f"kk {sem} {name}", self._expansions(
                lambda sem=sem: fixpoints.kripke_kleene(sem, program))))
            tasks.append(Task(f"wf {sem} {name}", self._expansions(
                lambda sem=sem: fixpoints.well_founded(sem, program).pair)))
        combined = syntax.combine_rules_per_head(program)
        least = interp.InterpretationPair.least_precise(program.universe)
        tasks.append(Task(f"lower ultimate {name}", self._expansions(
            lambda: fixpoints.lower_step("ultimate", combined, least))))
        return tasks

    def make_tasks(self, progs):
        return [t for p in progs for t in self._program_tasks(p.name, self.parsed[p.name])]

    def warmup_tasks(self):
        prog = gen.wide_program(random.Random(0), "w3", 3, "sum", "!=", "t",
                                lambda agg: ck.achievable(agg, set(), {"c1", "c2", "c3"}))
        return self._program_tasks("w3", syntax.parse_program(gen.render(prog)))

    def check(self, outputs):
        errors = []
        got = {t.label: out for t, out in zip(self.tasks, outputs)}
        for prog in self.progs:
            (agg,) = prog.aggregates()
            func = agg.func
            head = next(r.head for r in prog.rules if agg in r.body)
            pairs = {(kind, sem): _pair(got[f"{kind} {sem} {prog.name}"][0])
                     for kind in ("kk", "wf") for sem in FIXPOINT_SEMS}
            for sem in FIXPOINT_SEMS:
                if not ck.leq_precision(pairs["kk", sem], pairs["wf", sem]):
                    errors.append(f"{prog.name} {sem}: KK is not below WF in precision")
            for kind in ("kk", "wf"):
                for less, more in (("triv", "bnd"), ("bnd", "ult")):
                    if not ck.leq_precision(pairs[kind, less], pairs[kind, more]):
                        errors.append(f"{prog.name} {kind}: {less} is not below {more} in precision")
            expected = ck.ult_truth(agg, set(), set(prog.atoms))
            for kind in ("kk", "wf"):
                lower, upper = pairs[kind, "ult"]
                value = "t" if head in lower else "f" if head not in upper else "u"
                if value != expected:
                    errors.append(f"{prog.name} {kind} ult: {head} is {value}, its aggregate gives {expected}")
            lower_image, _ = got[f"lower ultimate {prog.name}"]
            if (head in lower_image.atoms) != (expected == "t"):
                errors.append(f"{prog.name}: the ultimate lower operator disagrees on {head}")
            for label, (_, expansions) in got.items():
                kind, sem, name = label.split()
                if name != prog.name:
                    continue
                if sem in ("bnd", "triv") and func in ("sum", "card", "prod") and expansions:
                    errors.append(f"{label}: expanded {expansions} intervals")
                if sem == "ult" and not expansions:
                    errors.append(f"{label}: expanded no interval")
        return errors

    def plant(self, outputs):
        """Swap the first program's KK pair under ult for the least precise pair."""
        planted = list(outputs)
        i = next(i for i, t in enumerate(self.tasks) if t.label.startswith("kk ult "))
        pair, expansions = planted[i]
        planted[i] = (interp.InterpretationPair.least_precise(pair.lower.universe), expansions)
        return planted


# ---------------------------------------------------------------------------
# analyze_verify
# ---------------------------------------------------------------------------

VERIFY_SEMS = "ult,bnd,mr,triv,gz,flp,ultimate"
ALWAYS_WELL_BEHAVED = ("triv", "ult", "lpst", "bnd", "ultimate")
# (atoms, programs); every rule is `p_i :- f{w:l, w:l} cmp k, l`, two rules each
SMALL_SLOTS = ((4, 30), (5, 2), (6, 1))
EXAMPLES = tuple(sorted(p.name for p in PROGRAMS.glob("*.lp") if p.name != WIDE_FILE))


def run_cli(argv: list[str], stdin_text: str | None) -> tuple[int, str]:
    """aggsem's command line in-process, with stdout captured."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


class AnalyzeVerify(Workload):
    name = "analyze_verify"

    def generate(self, rng):
        progs = [ck.parse_lp(name, (PROGRAMS / name).read_text(encoding="utf-8")) for name in EXAMPLES]
        for n_atoms, count in SMALL_SLOTS:
            for j in range(count):
                funcs = tuple(rng.sample(gen.FUNCS, 2))
                progs.append(gen.small_program(rng, f"s{n_atoms}_{j}", n_atoms, 2, funcs, j % 2 == 1))
        return progs

    def _program_tasks(self, name, text, from_file):
        source = str(PROGRAMS / name) if from_file else "-"
        stdin_text = None if from_file else text
        return [
            Task(f"analyze {name}", lambda: run_cli(["analyze", source, "--json"], stdin_text)),
            Task(f"verify {name}",
                 lambda: run_cli(["verify", source, "--semantics", VERIFY_SEMS, "--json"], stdin_text)),
        ]

    def make_tasks(self, progs):
        return [t for p in progs for t in self._program_tasks(p.name, self.texts[p.name], p.name in EXAMPLES)]

    def warmup_tasks(self):
        return self._program_tasks("tautology_pair.lp", None, True)

    def check(self, outputs):
        errors = []
        by_label = {t.label: out for t, out in zip(self.tasks, outputs)}
        for prog in self.progs:
            code, text = by_label[f"verify {prog.name}"]
            report = json.loads(text)["report"] if code == 0 else None
            if report is None or report["checked"] <= 0 or report["mismatches"]:
                errors.append(f"verify {prog.name}: exit {code}, {text.strip()[:200]}")
            code, text = by_label[f"analyze {prog.name}"]
            if code != 0:
                errors.append(f"analyze {prog.name}: exit {code}")
                continue
            errors += self._check_analyze(prog, json.loads(text)["report"])
        return errors

    @staticmethod
    def _check_analyze(prog, report):
        errors = []
        aggs = prog.aggregates()
        expect_behaved = list(ALWAYS_WELL_BEHAVED)
        if all(not lit.neg for agg in aggs for _, lit in agg.entries):
            expect_behaved.append("gz")
        for sem in expect_behaved:
            if not report["well_behaved"][sem]["holds"]:
                errors.append(f"analyze {prog.name}: {sem} reported not well-behaved")
        allowed = {("triv", "bnd"): "first <=p second", ("bnd", "triv"): "second <=p first",
                   ("bnd", "ult"): "first <=p second", ("ult", "bnd"): "second <=p first"}
        for row in report["precision"]:
            ok = allowed.get((row["first"], row["second"]))
            if ok is not None and row["order"] not in ("equal", ok):
                errors.append(f"analyze {prog.name}: {row['first']} vs {row['second']} is {row['order']}")
        expected = {str(agg): ck.is_convex(agg) for agg in aggs}
        if report["convex"] != expected:
            errors.append(f"analyze {prog.name}: convexity {report['convex']} != {expected}")
        return errors

    def plant(self, outputs):
        """Flip ult's well-behaved flag in the first analyze report."""
        planted = list(outputs)
        i = next(i for i, t in enumerate(self.tasks) if t.label.startswith("analyze "))
        code, text = planted[i]
        payload = json.loads(text)
        payload["report"]["well_behaved"]["ult"]["holds"] = not payload["report"]["well_behaved"]["ult"]["holds"]
        planted[i] = (code, json.dumps(payload))
        return planted


WORKLOADS = {w.name: w for w in (StableSearch, FixpointSweep, AnalyzeVerify)}
