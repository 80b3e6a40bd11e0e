"""End-to-end command-line tests over the shipped example programs."""

import io
import json
import time

import pytest

from aggsem.cli import run
from aggsem.interp import leq_precision
from aggsem.syntax import parse_program
from aggsem.ternary import all_consistent_pairs, sat3

from .conftest import PROGRAMS_DIR


def program_path(name: str) -> str:
    return str(PROGRAMS_DIR / name)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def test_models_three_rule_prints_empty_set(capsys):
    code, out, _ = run_cli(capsys, "models", program_path("three_rule_sum.lp"), "--semantics", "ult")
    assert code == 0
    assert out == "{}\n"


def test_models_multi_semantics_text(capsys):
    code, out, _ = run_cli(
        capsys,
        "models",
        program_path("three_rule_sum.lp"),
        "--semantics",
        "triv,gz,ult,lpst,bnd,ultimate",
    )
    assert code == 0
    assert out.splitlines() == [
        "triv: {}",
        "gz: {}",
        "ult: {}",
        "lpst: {}",
        "bnd: {}",
        "ultimate: {}",
    ]


def test_models_json_single_semantics(capsys):
    code, out, _ = run_cli(
        capsys, "models", program_path("three_rule_sum.lp"), "--semantics", "ult", "--json"
    )
    assert code == 0
    assert out.endswith("\n")
    assert json.loads(out) == {"command": "models", "semantics": ["ult"], "models": [[]]}


def test_models_json_multi_semantics(capsys):
    code, out, _ = run_cli(
        capsys,
        "models",
        program_path("tautology_pair.lp"),
        "--semantics",
        "ultimate,ult",
        "--json",
    )
    payload = json.loads(out)
    assert payload["results"] == {"ultimate": [["p"]], "ult": []}


def test_models_default_semantics(capsys):
    code, out, _ = run_cli(capsys, "models", program_path("three_rule_sum.lp"))
    assert code == 0 and out == "{}\n"


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_loop_under_mr_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        program_path("nonconvex_loop.lp"),
        "--semantics",
        "mr",
        "--model",
        "p,q,s",
    )
    assert code == 0
    assert "is stable" in out


def test_check_loop_under_ult_exits_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        program_path("nonconvex_loop.lp"),
        "--semantics",
        "ult",
        "--model",
        "p,q,s",
    )
    assert code == 1
    assert "not stable" in out


def test_check_json_payload(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        program_path("tautology_pair.lp"),
        "--semantics",
        "ultimate",
        "--model",
        "p",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {
        "command": "check",
        "semantics": ["ultimate"],
        "model": ["p"],
        "stable": True,
    }


def test_check_unknown_model_atom_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys,
        "check",
        program_path("tautology_pair.lp"),
        "--semantics",
        "ult",
        "--model",
        "zz",
    )
    assert code == 2
    assert "unknown atom" in err


# ---------------------------------------------------------------------------
# kk / wf
# ---------------------------------------------------------------------------


def test_wf_of_fact_program(tmp_path, capsys):
    path = tmp_path / "fact.lp"
    path.write_text("p.\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "wf", str(path), "--semantics", "gl", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["wf"] == {"lower": ["p"], "upper": ["p"]}


def test_kk_json(tmp_path, capsys):
    path = tmp_path / "loop.lp"
    path.write_text("p :- not q.\nq :- not p.\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "kk", str(path), "--semantics", "gl", "--json")
    payload = json.loads(out)
    assert payload["kk"] == {"lower": [], "upper": ["p", "q"]}


def test_wf_under_mr_is_capability_error(capsys):
    code, _, err = run_cli(
        capsys, "wf", program_path("nonconvex_loop.lp"), "--semantics", "mr"
    )
    assert code == 3
    assert "truth function" in err


def test_gl_on_aggregates_is_capability_error(capsys):
    code, _, err = run_cli(
        capsys, "models", program_path("nonconvex_loop.lp"), "--semantics", "gl"
    )
    assert code == 3


@pytest.mark.parametrize("command", [["models"], ["check", "--model", "p"]])
def test_gl_rejects_aggregates_with_no_stable_model(tmp_path, capsys, command):
    path = tmp_path / "odd.lp"
    path.write_text("p :- not p, sum{1:q} >= 0.\n", encoding="utf-8")
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:], "--semantics", "gl")
    assert code == 3 and out == ""
    assert "gl handles aggregate-free programs only" in err


def test_unknown_semantics_tag(capsys):
    code, _, err = run_cli(
        capsys, "models", program_path("tautology_pair.lp"), "--semantics", "nope"
    )
    assert code == 3
    assert "unknown semantics" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["models"],
        ["check", "--model", "p"],
        ["check", "--json", "--model", "p"],
        ["kk"],
        ["wf"],
        ["compare"],
        ["analyze"],
        ["verify"],
    ],
    ids=" ".join,
)
def test_empty_semantics_list_is_usage_error(capsys, argv):
    code, out, err = run_cli(
        capsys, argv[0], program_path("tautology_pair.lp"), *argv[1:], "--semantics", " , "
    )
    assert code == 2 and out == ""
    assert err == "aggsem: --semantics names no semantics\n"


# ---------------------------------------------------------------------------
# compare / analyze / verify / parse
# ---------------------------------------------------------------------------


def test_compare_tautology_table(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare",
        program_path("tautology_pair.lp"),
        "--semantics",
        "ultimate,ult",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("semantics")
    assert any("ultimate" in line and "{p}" in line for line in lines)
    assert any(line.startswith("ult ") and "(none)" in line for line in lines)


def test_analyze_loop_program(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        program_path("nonconvex_loop.lp"),
        "--semantics",
        "ult,mr,flp",
        "--json",
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["convex"]["sum{1:p, -1:q} >= 0"] is False
    assert report["well_behaved"]["ult"]["holds"] is True
    assert report["well_behaved"]["mr"]["holds"] is False
    assert "counterexample" in report["well_behaved"]["mr"]
    orders = {(row["first"], row["second"]): row["order"] for row in report["precision"]}
    assert orders[("ult", "mr")] == "first <=p second"


# Under mr and flp the first body element, the avg atom, already fails the
# one-step scan, but the scan for a witness goes from the least precise
# pair over every formula, and meets the prod atom first.
INTERLEAVED = """
#atoms a0, a1, a2, a3.
a0 :- avg{0:not a0, 3:not a1, -2:a3} <= 0, a3, prod{-3:a0, -2:not a1, -2:a3} <= 3.
a1 :- card{-3:not a3} > 6, sum{0:not a3, 2:a2, 2:a2} > -3.
a1 :- a1.
a3 :- a0, sum{3:a2} != 5, a0.
"""


def test_analyze_witness_may_name_a_later_formula(tmp_path, capsys):
    path = tmp_path / "interleaved.lp"
    path.write_text(INTERLEAVED, encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path), "--semantics", "mr,flp")
    assert (code, err) == (0, "")
    witness = (
        "no (satisfied at ({}, {a0, a1, a2}) but not at the refinement ({}, {a0}) "
        "on prod{-3:a0, -2:not a1, -2:a3} <= 3)"
    )
    assert out.splitlines()[5:] == [
        f"well-behaved: mr: {witness}",
        f"well-behaved: flp: {witness}",
        "precision: mr vs flp: second <=p first",
    ]
    # the avg atom is satisfied at a pair and not at a one-atom refinement
    program = parse_program(INTERLEAVED)
    avg, pairs = program.body_elements()[0], all_consistent_pairs(program.universe)
    assert avg.func.value == "avg"
    assert any(
        sat3("mr", avg, p) and not sat3("mr", avg, q)
        for p in pairs
        for q in pairs
        if leq_precision(p, q) and len(q.undefined_atoms()) == len(p.undefined_atoms()) - 1
    )


def test_verify_loop_program_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        program_path("nonconvex_loop.lp"),
        "--semantics",
        "mr,flp,ult,bnd",
        "--json",
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["mismatches"] == []
    assert report["stable"]["mr"] == [["p", "q", "s"]]
    assert report["stable"]["ult"] == []


def test_verify_stable_keys_follow_semantics_order(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        program_path("nonconvex_loop.lp"),
        "--semantics",
        "ult,gz,flp",
        "--json",
    )
    assert code == 0
    assert list(json.loads(out)["report"]["stable"]) == ["ult", "gz", "flp"]


def test_parse_round_trip(capsys):
    code, out, _ = run_cli(capsys, "parse", program_path("nonconvex_loop.lp"))
    assert code == 0
    assert out.splitlines()[0] == "s :- sum{1:p, -1:q} >= 0."


def test_counterpart_programs_end_to_end(capsys):
    code, out, _ = run_cli(
        capsys,
        "models",
        program_path("three_rule_counterpart.lp"),
        "--semantics",
        "gl",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["models"] == [[]]
    code, out, _ = run_cli(
        capsys,
        "models",
        program_path("nonconvex_loop_counterpart.lp"),
        "--semantics",
        "gl",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["models"] == []


def test_bounds_gap_program_end_to_end(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare",
        program_path("bounds_gap.lp"),
        "--semantics",
        "bnd,ult",
        "--json",
    )
    assert code == 0
    results = json.loads(out)["results"]
    # the sweep proves the != body true once q is derived; the bounds cannot
    assert results["ult"] == [["p", "q"]]
    assert results["bnd"] == []


@pytest.mark.parametrize(
    "argv", [["models", "--seed", "1"], ["parse", "--max-atoms", "3"]], ids=" ".join
)
def test_flags_only_on_commands_that_read_them(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run([argv[0], program_path("tautology_pair.lp"), *argv[1:]])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.lp"
    path.write_text("p :- q not r.\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "parse", str(path))
    assert code == 2
    assert "1:8" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "models", "/nonexistent/file.lp")
    assert code == 2


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("p.\n"))
    code, out, _ = run_cli(capsys, "models", "-", "--semantics", "ult")
    assert code == 0
    assert out == "{p}\n"


def test_output_is_deterministic(capsys):
    args = (
        "verify",
        program_path("three_rule_sum.lp"),
        "--semantics",
        "triv,ult,bnd,ultimate",
        "--json",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# exact output of the commands that share a body
# ---------------------------------------------------------------------------

TAUTOLOGY = program_path("tautology_pair.lp")
LOOP = program_path("nonconvex_loop.lp")

GOLDEN = [
    (
        ["kk", LOOP, "--semantics", "triv,ult"],
        0,
        "triv: lower {} upper {p, q, s}\n"
        "ult: lower {} upper {p, q, s}\n",
    ),
    (
        ["kk", TAUTOLOGY, "--semantics", "bnd,ult", "--json"],
        0,
        '{"command": "kk", "semantics": ["bnd"], "kk": {"lower": [], "upper": ["p"]}}\n'
        '{"command": "kk", "semantics": ["ult"], "kk": {"lower": [], "upper": ["p"]}}\n',
    ),
    (
        ["wf", LOOP, "--semantics", "triv,ult"],
        0,
        "triv: lower {} upper {p, q, s} (1 rounds)\n"
        "ult: lower {} upper {p, q, s} (1 rounds)\n",
    ),
    (
        ["wf", TAUTOLOGY, "--semantics", "bnd,ult", "--json"],
        0,
        '{"command": "wf", "semantics": ["bnd"], "wf": {"lower": [], "upper": ["p"]}, '
        '"iterations": 1}\n'
        '{"command": "wf", "semantics": ["ult"], "wf": {"lower": [], "upper": ["p"]}, '
        '"iterations": 1}\n',
    ),
    (
        ["models", TAUTOLOGY, "--semantics", "ult,ultimate"],
        0,
        "ult: (none)\nultimate: {p}\n",
    ),
    (
        ["models", TAUTOLOGY, "--semantics", "ult,ultimate", "--json"],
        0,
        '{"command": "models", "semantics": ["ult", "ultimate"], '
        '"results": {"ult": [], "ultimate": [["p"]]}}\n',
    ),
    (
        ["models", LOOP, "--semantics", "mr", "--json"],
        0,
        '{"command": "models", "semantics": ["mr"], "models": [["p", "q", "s"]]}\n',
    ),
    (
        ["compare", TAUTOLOGY],
        0,
        "semantics  stable models\n"
        "ult        (none)\n"
        "ultimate   {p}\n",
    ),
    (
        ["compare", LOOP, "--semantics", "ult,mr,flp", "--json"],
        0,
        '{"command": "compare", "semantics": ["ult", "mr", "flp"], '
        '"results": {"ult": [], "mr": [["p", "q", "s"]], "flp": [["p", "q", "s"]]}}\n',
    ),
    (
        ["check", LOOP, "--semantics", "ult,mr,flp", "--model", "p,q,s"],
        1,
        "ult: {p, q, s} is not stable\n"
        "mr: {p, q, s} is stable\n"
        "flp: {p, q, s} is stable\n",
    ),
]


@pytest.mark.parametrize(
    "argv, code, stdout",
    GOLDEN,
    ids=[" ".join(a.rsplit("/", 1)[-1] for a in argv) for argv, _, _ in GOLDEN],
)
def test_golden_output(capsys, argv, code, stdout):
    assert run_cli(capsys, *argv) == (code, stdout, "")


# ---------------------------------------------------------------------------
# stable search where an aggregate's bounds leave the 64-bit range
# ---------------------------------------------------------------------------

HALF = 1 << 62  # two of these sum to 2^63, one past the largest int64


@pytest.mark.parametrize(
    "text, models",
    [
        # p and q are false in every candidate, so no sum reaches 2^63;
        # a box started at the whole universe would overflow
        (f"#atoms h, p, q.\nh :- sum{{{HALF}:p, {HALF}:q}} >= 1.\n", "{}"),
        # the bounds overflow, so the search keeps every subset of the
        # heads; `not p` comes first, so no candidate sums both weights
        (
            f"h :- not p, sum{{{HALF}:p, {HALF}:q}} >= 1.\np :- not q.\nq :- not p.\n",
            "{h, q} {p}",
        ),
    ],
    ids=["non-head conditions", "overflowing bounds"],
)
def test_models_when_aggregate_bounds_overflow(tmp_path, capsys, text, models):
    path = tmp_path / "big.lp"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "models", str(path), "--semantics", "ult,mr,flp")
    assert (code, out, err) == (0, f"ult: {models}\nmr: {models}\nflp: {models}\n", "")


@pytest.mark.parametrize("sem", ["gl", "ult", "flp"])
def test_verify_counts_overflowing_checks_as_skipped(tmp_path, capsys, sem):
    # exact_bounds overflows at every pair with p and q both in the lower set
    path = tmp_path / "big.lp"
    path.write_text(f"#atoms h, p, q.\nh :- sum{{{HALF}:p, {HALF}:q}} >= 1.\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path), "--semantics", sem, "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)["report"]
    assert report["skipped"] > 0 and report["checked"] > 0
    assert report["mismatches"] == []


# ---------------------------------------------------------------------------
# universe cap
# ---------------------------------------------------------------------------

# 23 atoms, three above the default cap of 20; an ult sweep of this
# aggregate at the least precise pair visits 2^22 members
WIDE_SUM = "h :- sum{" + ", ".join(f"1:c{i}" for i in range(22)) + "} >= 23.\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["models"],
        ["check", "--model", "h"],
        ["kk"],
        ["wf"],
        ["compare"],
        ["analyze"],
        ["verify"],
        ["verify", "--max-atoms", "3", "--semantics", "ult"],
    ],
    ids=" ".join,
)
def test_max_atoms_covers_every_command_but_parse(tmp_path, capsys, argv):
    path = tmp_path / "wide.lp"
    path.write_text(WIDE_SUM, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    elapsed = time.perf_counter() - start
    assert code == 3 and out == ""
    assert "universe of 23 atoms exceeds bound" in err
    assert elapsed < 1.0, f"{argv[0]} took {elapsed:.2f}s to refuse"
    assert run_cli(capsys, "parse", str(path))[0] == 0


def test_verify_reads_max_atoms(tmp_path, capsys):
    # a 22-atom chain: above the default cap of 20, within --max-atoms 22
    path = tmp_path / "chain.lp"
    path.write_text("a0.\n" + "".join(f"a{i + 1} :- a{i}.\n" for i in range(21)), encoding="utf-8")
    model = "{" + ", ".join(sorted(f"a{i}" for i in range(22))) + "}"
    code, out, err = run_cli(capsys, "models", str(path), "--semantics", "gl", "--max-atoms", "22")
    assert (code, out, err) == (0, model + "\n", "")
    code, out, err = run_cli(
        capsys, "verify", str(path), "--semantics", "gl,ult", "--max-atoms", "22"
    )
    # the reduct oracle refuses 22 free atoms, so its comparison is skipped
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "checked: 0",
        "skipped: 1 (oracle bounds or 64-bit overflow)",
        f"gl: {model}",
        f"ult: {model}",
        "ok",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["models"],
        ["check", "--model", "p"],
        ["kk"],
        ["wf"],
        ["compare"],
        ["analyze"],
        ["verify"],
    ],
    ids=" ".join,
)
def test_semantics_list_naming_a_tag_twice_is_usage_error(capsys, argv):
    code, out, err = run_cli(
        capsys, argv[0], program_path("tautology_pair.lp"), *argv[1:], "--semantics", "ult,gz, ult"
    )
    assert (code, out, err) == (2, "", "aggsem: --semantics names ult twice\n")


def test_verify_text_names_both_causes_of_skips(tmp_path, capsys):
    # no oracle bound is reached on 3 atoms: every skip is an overflow
    path = tmp_path / "big.lp"
    path.write_text(f"#atoms h, p, q.\nh :- sum{{{HALF}:p, {HALF}:q}} >= 1.\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path), "--semantics", "gl")
    assert (code, err) == (0, "")
    assert "skipped: 12 (oracle bounds or 64-bit overflow)\n" in out


# ---------------------------------------------------------------------------
# exact output of analyze under the default tags
# ---------------------------------------------------------------------------

ANALYZE_TAGS = ["triv", "gz", "ult", "lpst", "bnd", "mr", "flp", "ultimate"]
LESS = "first <=p second"


def analyze_golden(convex, counterexample, precision):
    """analyze's text and JSON output when mr and flp share the
    counterexample and every other tag is well-behaved; `precision` holds
    the orders of the 21 tag pairs in output order."""
    behaved = {
        tag: {"holds": False, "counterexample": counterexample}
        if tag in ("mr", "flp")
        else {"holds": True}
        for tag in ANALYZE_TAGS
    }
    pairs = [(a, b) for i, a in enumerate(ANALYZE_TAGS[:-1]) for b in ANALYZE_TAGS[i + 1 : -1]]
    rows = [{"first": a, "second": b, "order": o} for (a, b), o in zip(pairs, precision)]
    text = [f"convex: {atom}: {'yes' if yes else 'no'}" for atom, yes in convex.items()]
    text += [f"well-behaved: {tag}: yes" for tag in ANALYZE_TAGS[:5]]
    text += [f"well-behaved: {tag}: no ({counterexample})" for tag in ("mr", "flp")]
    text += ["well-behaved: ultimate: yes"]
    text += [f"precision: {r['first']} vs {r['second']}: {r['order']}" for r in rows]
    payload = {
        "command": "analyze",
        "semantics": ANALYZE_TAGS,
        "report": {"convex": convex, "well_behaved": behaved, "precision": rows},
    }
    text_out = "".join(line + "\n" for line in text)
    return text_out, json.dumps(payload, separators=(", ", ": ")) + "\n"


ANALYZE_GOLDEN = {
    "nonconvex_loop.lp": analyze_golden(
        {"sum{1:p, -1:q} >= 0": False, "sum{1:s} > 0": True, "sum{1:q} > 0": True},
        "satisfied at ({}, {p, q, s}) but not at the refinement ({}, {q}) on sum{1:p, -1:q} >= 0",
        # triv vs gz ult lpst bnd mr flp, gz vs ult lpst bnd mr flp,
        # ult vs lpst bnd mr flp, lpst vs bnd mr flp, bnd vs mr flp, mr vs flp
        ["equal", LESS, LESS, LESS, LESS, LESS, LESS, LESS, LESS, LESS, LESS]
        + ["equal", "equal", LESS, LESS, "equal", LESS, LESS, LESS, LESS, "second <=p first"],
    ),
    "bounds_gap.lp": analyze_golden(
        {"sum{2:p, 1:q} != 2": False},
        "satisfied at ({}, {p, q}) but not at the refinement ({}, {p}) on sum{2:p, 1:q} != 2",
        ["equal", LESS, LESS, LESS, LESS, LESS, LESS, LESS, LESS, LESS, LESS]
        + ["equal", "second <=p first", LESS, LESS]
        + ["second <=p first", LESS, LESS, LESS, LESS, "second <=p first"],
    ),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_GOLDEN))
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_analyze_golden_output(capsys, name, json_flag):
    text, payload = ANALYZE_GOLDEN[name]
    expected = payload if json_flag else text
    assert run_cli(capsys, "analyze", program_path(name), *json_flag) == (0, expected, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["models"],
        ["check", "--model", "p"],
        ["kk"],
        ["wf"],
        ["compare"],
        ["analyze"],
        ["verify"],
    ],
    ids=" ".join,
)
def test_negative_max_atoms_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run([argv[0], program_path("tautology_pair.lp"), *argv[1:], "--max-atoms", "-1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --max-atoms: a universe-size cap is at least 0, not -1" in captured.err


def test_parser_is_built_once_and_answers_as_a_fresh_one(capsys, monkeypatch):
    import aggsem.cli as cli

    loop = program_path("nonconvex_loop.lp")
    argvs = [
        ["models"],  # no input: a usage error
        ["models", loop, "--semantics", "mr,ult"],
        ["verify", loop, "--semantics", "mr,bnd"],
    ]

    def outcomes():
        found = []
        for argv in argvs:
            try:
                code = run(argv)
            except SystemExit as exit_:
                code = exit_.code
            captured = capsys.readouterr()
            found.append((code, captured.out, captured.err))
        return found

    cached = outcomes()
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert outcomes() == cached
    assert [code for code, _, _ in cached] == [2, 0, 0]
    assert "the following arguments are required: input" in cached[0][2]
