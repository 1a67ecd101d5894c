"""The worked-example registry: coverage, determinism, serializability."""

import json
import subprocess
import sys
from pathlib import Path

import jumploci
from jumploci.fixtures import fixture_list, fixture_names, run_fixture

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = PERFBENCH / "golden"

REQUIRED = {
    "chain-link",
    "trefoil",
    "s1s2",
    "torus3",
    "path3-tree",
    "braid",
    "near-pencil",
    "deleted-b3",
}


def test_required_names_present():
    names = set(fixture_names())
    assert REQUIRED <= names


def test_every_module_has_at_least_three_fixtures():
    per_module = {}
    for entry in fixture_list():
        for mod in entry["modules"]:
            per_module.setdefault(mod, set()).add(entry["name"])
    for mod in ("laurent", "aomoto", "cvmodel", "toric", "arrangements"):
        assert len(per_module.get(mod, ())) >= 3, mod


def test_reports_are_json_serializable_and_deterministic():
    for name in fixture_names():
        a = json.dumps(run_fixture(name, seed=0), sort_keys=True)
        b = json.dumps(run_fixture(name, seed=0), sort_keys=True)
        assert a == b, name
        assert json.loads(a)["fixture"] == name


def test_unknown_fixture_raises():
    try:
        run_fixture("no-such-example")
        assert False, "unknown names must raise"
    except ValueError as e:
        assert "no-such-example" in str(e)


def test_reports_match_golden_output_byte_for_byte():
    # each golden file is the recorded stdout of `jumploci fixtures run NAME`
    paths = sorted(GOLDEN.glob("*.json"))
    assert paths
    for path in paths:
        text = json.dumps(run_fixture(path.stem, seed=0), indent=2, sort_keys=True) + "\n"
        assert text.encode() == path.read_bytes(), path.stem


def test_benchmark_tracer_resolves_every_target():
    # `perfbench/run.py --trace 1` wraps each (module, attribute) of
    # spans.TARGETS; a renamed or deleted target must fail here.  The
    # wrapping rebinds module attributes, so it runs in its own interpreter.
    script = (
        "import importlib, spans\n"
        "def resolve(mod, attr):\n"
        "    obj = importlib.import_module('jumploci.' + mod)\n"
        "    for part in attr.split('.'):\n"
        "        obj = vars(obj)[part]\n"
        "    return getattr(obj, '__func__', obj)\n"
        "before = [resolve(m, a) for m, a in spans.TARGETS]\n"
        "spans.Tracer().install()\n"
        "after = [resolve(m, a) for m, a in spans.TARGETS]\n"
        "print(len(before), sum(x is not y for x, y in zip(before, after)))\n"
    )
    src = str(Path(jumploci.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=PERFBENCH,
        env={"PYTHONPATH": f"{PERFBENCH}:{src}"},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    total, wrapped = map(int, done.stdout.split())
    assert total > 0 and wrapped == total
