"""The command-line surface of every command, against a recording.

For each command prefix, from bare `jumploci` to every subcommand, the
recording in cli_surface.json holds the usage lines of its `--help`, and
the JSON error and exit code when its required arguments are missing and
when an unknown flag is given.  Only these lines are pinned, not the full
help text, so the recording holds on every supported Python.  Rewrite it
after a deliberate change with `PYTHONPATH=src python tests/test_cli_surface.py`.
"""

import contextlib
import io
import json
import os
from pathlib import Path

from jumploci.cli import main

RECORDING = Path(__file__).with_name("cli_surface.json")

# Each prefix with placeholder values for its required arguments (parsing
# fails before any file is read), or None for a prefix that needs a command.
PREFIXES = {
    (): None,
    ("toric",): None,
    ("toric", "res"): ["--complex", "K"],
    ("toric", "cv"): ["--complex", "K"],
    ("toric", "omega"): ["--complex", "K", "--plane", "P", "--r", "1"],
    ("tcone",): ["--poly", "F"],
    ("linkcv",): ["--poly", "F"],
    ("cvchain",): ["--chain", "C"],
    ("cv",): None,
    ("cv", "classify"): ["--model", "M"],
    ("cv", "omega"): ["--model", "M", "--plane", "P"],
    ("cv", "witness"): ["--model", "M"],
    ("arr",): None,
    ("arr", "points"): ["--forms", "F"],
    ("arr", "res1"): ["--forms", "F"],
    ("arr", "omega"): ["--forms", "F", "--r", "1"],
    ("aomoto",): None,
    ("aomoto", "betti"): ["--algebra", "A", "--point", "P"],
    ("aomoto", "member"): ["--algebra", "A", "--point", "P"],
    ("fixtures",): None,
    ("fixtures", "list"): [],
    ("fixtures", "run"): ["torus3"],
}


def _run(argv):
    """(exit code, stdout) of `jumploci argv`, which must stop in argparse."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main(argv)
        except SystemExit as stop:
            return stop.code, out.getvalue()
    raise AssertionError(f"jumploci {' '.join(argv)} parsed")


def surface():
    """The recorded lines for every prefix, in the order of PREFIXES."""
    records = []
    for prefix, required in PREFIXES.items():
        argv = [*prefix, "--help"]
        code, out = _run(argv)
        records.append({"argv": argv, "exit": code, "usage": out.split("\n\n")[0]})
        if required != []:
            code, out = _run(list(prefix))
            records.append({"argv": list(prefix), "exit": code, "stdout": out})
        argv = [*prefix, *(required or []), "--bogus"]
        code, out = _run(argv)
        records.append({"argv": argv, "exit": code, "stdout": out})
    return records


def test_usage_lines_and_parse_errors_match_the_recording(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    recorded = json.loads(RECORDING.read_text(encoding="utf-8"))
    assert surface() == recorded
    # every error is a JSON parse error with exit code 3
    errors = [r for r in recorded if "stdout" in r]
    assert len(errors) == 2 * len(PREFIXES) - 1
    for r in errors:
        assert r["exit"] == 3
        assert json.loads(r["stdout"])["error"]["type"] == "parse"


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    RECORDING.write_text(json.dumps(surface(), indent=1) + "\n", encoding="utf-8")
