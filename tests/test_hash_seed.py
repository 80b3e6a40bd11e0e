"""No command's output depends on the string hash seed.  Universes,
interpretations and pairs hash through their atoms' strings, so a set or
dict of them iterates in an order that changes with `PYTHONHASHSEED`;
nothing a command prints may follow such an order.  Two processes under
two seeds run every command on every shipped program, under each tag
where the command takes one, and their transcripts must be equal: each
command as text and as JSON, but `verify`, which takes most of the time,
as JSON only."""

import os
import subprocess
import sys
from pathlib import Path

from aggsem.ternary import SemanticsId

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("models", "kk", "wf", "compare", "analyze", "verify")

# Runs `cli.run` in-process on each call and prints the exit code, stdout
# and stderr of each.
TRANSCRIPT = """
import contextlib, io, sys
from pathlib import Path
from aggsem import cli

programs, commands, tags = sys.argv[1], sys.argv[2].split(","), sys.argv[3].split(",")
for path in sorted(Path(programs).glob("*.lp")):
    calls = [["parse", str(path)], ["parse", str(path), "--json"]]
    for command in commands:
        for tag in tags:
            calls.append([command, str(path), "--semantics", tag, "--json"])
            if command != "verify":
                calls.append([command, str(path), "--semantics", tag])
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        print("$", path.name, *argv[:1], *argv[2:], "->", code)
        print(out.getvalue() + err.getvalue(), end="")
"""


def test_no_command_output_depends_on_the_hash_seed(tmp_path):
    tags = ",".join(sem.value for sem in SemanticsId)
    argv = [sys.executable, "-c", TRANSCRIPT, str(ROOT / "programs"), ",".join(COMMANDS), tags]
    transcripts = []
    for seed in ("1", "2"):  # both at once, each writing to its own file
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(ROOT / "src")}
        with open(tmp_path / seed, "w", encoding="utf-8") as out:
            run = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT, text=True)
        transcripts.append((run, tmp_path / seed))
    first, second = [(run.wait(timeout=300), path.read_text()) for run, path in transcripts]
    assert first[0] == second[0] == 0, first[1][-2000:] + second[1][-2000:]
    programs = len(list((ROOT / "programs").glob("*.lp")))
    calls = sum(line.startswith("$ ") for line in first[1].splitlines())
    # parse in both formats; the other commands in both per tag, but verify
    assert calls == programs * (2 + (2 * len(COMMANDS) - 1) * len(SemanticsId))
    assert first[1] == second[1]
