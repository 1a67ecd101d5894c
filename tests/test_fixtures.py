"""The worked-example registry: coverage, determinism, serializability."""

import json
from pathlib import Path

from jumploci.fixtures import fixture_list, fixture_names, run_fixture

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"

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
