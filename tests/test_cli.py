"""The command-line interface, run in-process through main()."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import jumploci
from jumploci import codec
from jumploci.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


POLY_CHAIN_LINK = {
    "n_vars": 3,
    "terms": [
        {"exponents": [1, 0, 0], "coeff": "1"},
        {"exponents": [0, 1, 0], "coeff": "1"},
        {"exponents": [0, 0, 1], "coeff": "1"},
        {"exponents": [1, 1, 0], "coeff": "-1"},
        {"exponents": [1, 0, 1], "coeff": "-1"},
        {"exponents": [0, 1, 1], "coeff": "-1"},
    ],
}


def test_tcone_chain_link(tmp_path, capsys):
    poly = write_json(tmp_path, "f.json", POLY_CHAIN_LINK)
    code, out = run_cli(capsys, "tcone", "--poly", poly)
    assert code == 0
    rep = json.loads(out)
    assert rep["equal"] is False
    assert rep["tau1_inside_tc1"] is True
    assert len(rep["tau1"]["components"]) == 3
    assert all(c["dim"] == 1 for c in rep["tau1"]["components"])


def test_toric_subcommands(tmp_path, capsys):
    complex_file = write_json(
        tmp_path, "k.json", {"facets": [[1, 2], [2, 3]], "n": 3}
    )
    code, out = run_cli(capsys, "toric", "res", "--complex", complex_file)
    assert code == 0
    assert json.loads(out)["resonance"]["subsets"] == [[1, 3]]

    plane = write_json(tmp_path, "p.json", {"n": 3, "basis": [["1", "1", "1"]]})
    code, out = run_cli(
        capsys, "toric", "omega", "--complex", complex_file,
        "--plane", plane, "--r", "1",
    )
    assert code == 0
    assert json.loads(out)["member"] is True


def test_linkcv_trefoil(tmp_path, capsys):
    poly = write_json(
        tmp_path,
        "d.json",
        {
            "n_vars": 1,
            "terms": [
                {"exponents": [2], "coeff": "1"},
                {"exponents": [1], "coeff": "-1"},
                {"exponents": [0], "coeff": "1"},
            ],
        },
    )
    code, out = run_cli(capsys, "linkcv", "--poly", poly)
    assert code == 0
    rep = json.loads(out)
    assert rep["model"]["isolated"] == [["0"], ["1/6"], ["5/6"]]


def test_cv_classify_and_witness(tmp_path, capsys):
    model_file = write_json(
        tmp_path,
        "m.json",
        {
            "degrees": [
                {
                    "degree": 1,
                    "model": {
                        "n": 2,
                        "components": [
                            {"direction": [["0", "1"]], "q": ["1/2", "0"]}
                        ],
                        "isolated": [["0", "0"]],
                    },
                    "resonance": {"n": 2, "components": []},
                }
            ]
        },
    )
    code, out = run_cli(capsys, "cv", "classify", "--model", model_file)
    assert code == 0
    rep = json.loads(out)
    assert rep["locally_k_straight"] is True
    assert rep["k_straight"] is False
    assert rep["failing_condition"] == "c"

    witness_file = write_json(
        tmp_path,
        "w.json",
        {
            "n": 3,
            "component": {"direction": [["0", "0", "1"]], "q": ["1/2", "0", "0"]},
            "resonance": {"n": 3, "components": [{"basis": [["1", "0", "0"]]}]},
        },
    )
    code, out = run_cli(
        capsys, "cv", "witness", "--model", witness_file, "--bound", "3"
    )
    assert code == 0
    assert json.loads(out)["witness"]["basis"] == [["1", "2", "0"], ["0", "0", "1"]]


def test_arr_subcommands(tmp_path, capsys):
    forms = write_json(
        tmp_path,
        "forms.json",
        [
            ["1", "0", "0"],
            ["1", "1", "0"],
            ["1", "1", "1"],
            ["0", "1", "0"],
            ["0", "1", "1"],
            ["0", "0", "1"],
        ],
    )
    code, out = run_cli(capsys, "arr", "res1", "--forms", forms)
    assert code == 0
    rep = json.loads(out)
    assert len(rep["components"]) == 5
    assert rep["completeness_note"] is None

    code, out = run_cli(capsys, "arr", "omega", "--forms", forms, "--r", "5")
    assert code == 0
    assert json.loads(out)["answer"] == "empty"


def test_aomoto_subcommands(tmp_path, capsys):
    algebra = write_json(
        tmp_path,
        "alg.json",
        {
            "dims": [1, 2, 1],
            "mult": [{"deg": 1, "table": [[["0"], ["1"]], [["-1"], ["0"]]]}],
        },
    )
    origin = write_json(tmp_path, "a0.json", ["0", "0"])
    some = write_json(tmp_path, "a1.json", ["1", "1"])
    code, out = run_cli(
        capsys, "aomoto", "betti", "--algebra", algebra, "--point", origin
    )
    assert code == 0
    assert json.loads(out)["betti"] == 2
    code, out = run_cli(
        capsys, "aomoto", "member", "--algebra", algebra, "--point", some
    )
    assert code == 0
    assert json.loads(out)["member"] is False


def test_fixtures_subcommands(capsys):
    code, out = run_cli(capsys, "fixtures", "list")
    assert code == 0
    names = [f["name"] for f in json.loads(out)["fixtures"]]
    assert "chain-link" in names
    code, out = run_cli(capsys, "fixtures", "run", "chain-link")
    assert code == 0
    assert json.loads(out)["fixture"] == "chain-link"


def test_tsv_output_is_flat_and_sorted(tmp_path, capsys):
    code, out = run_cli(capsys, "fixtures", "run", "generic3", "--format", "tsv")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    keys = [l.split("\t")[0] for l in lines]
    assert keys == sorted(keys)
    assert all(len(l.split("\t")) == 2 for l in lines)


def test_output_is_byte_deterministic(tmp_path, capsys):
    forms = write_json(
        tmp_path, "forms.json", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    )
    _, first = run_cli(capsys, "arr", "res1", "--forms", forms, "--seed", "4")
    _, second = run_cli(capsys, "arr", "res1", "--forms", forms, "--seed", "4")
    assert first == second


def test_precondition_errors_exit_2(tmp_path, capsys):
    witness_file = write_json(
        tmp_path,
        "w.json",
        {
            "n": 2,
            "component": {"direction": [["0", "1"]], "q": ["0", "0"]},
            "resonance": {"n": 2, "components": []},
        },
    )
    code, out = run_cli(capsys, "cv", "witness", "--model", witness_file)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "precondition"


HUGE_DEGREE = {
    "n_vars": 1,
    "terms": [
        {"exponents": [1000000000], "coeff": "1"},
        {"exponents": [0], "coeff": "-1"},
    ],
}


def test_huge_exponent_tangent_cone_is_immediate(tmp_path, capsys):
    poly = write_json(tmp_path, "f.json", HUGE_DEGREE)
    start = time.perf_counter()
    code, out = run_cli(capsys, "tcone", "--poly", poly)
    assert time.perf_counter() - start < 5
    assert code == 0
    rep = json.loads(out)
    assert rep["tc1"]["terms"] == [{"coeff": "1", "exponents": [1]}]
    assert rep["tau1"]["trivial"] is True
    assert rep["equal"] is True


def test_oversized_inputs_exit_2(tmp_path, capsys):
    poly = write_json(tmp_path, "f.json", HUGE_DEGREE)
    code, out = run_cli(capsys, "linkcv", "--poly", poly)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "precondition" and "degree span" in err["message"]

    chain = write_json(
        tmp_path, "c.json", {"ranks": [1, 1], "boundaries": [[[HUGE_DEGREE]]]}
    )
    code, out = run_cli(capsys, "cvchain", "--chain", chain)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "precondition" and "degree span" in err["message"]

    terms = [{"exponents": [k], "coeff": "1"} for k in range(1, 11)]
    terms.append({"exponents": [0], "coeff": "-10"})
    poly = write_json(tmp_path, "g.json", {"n_vars": 1, "terms": terms})
    code, out = run_cli(capsys, "tcone", "--poly", poly)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "precondition" and "support too large" in err["message"]

    # 40 tangents of a conic: the braid scan is refused at once, while the
    # intersection points and the cover bound are still answered
    forms = write_json(tmp_path, "forms.json", [[1, k, k * k] for k in range(40)])
    start = time.perf_counter()
    code, out = run_cli(capsys, "arr", "res1", "--forms", forms)
    assert time.perf_counter() - start < 1
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "precondition" and "too many lines" in err["message"]
    code, out = run_cli(capsys, "arr", "points", "--forms", forms)
    assert code == 0 and len(json.loads(out)["points"]) == 780
    code, out = run_cli(capsys, "arr", "omega", "--forms", forms, "--r", "2")
    assert code == 0 and json.loads(out)["answer"] == "full"


def test_toric_search_over_its_call_limit_exits_2(tmp_path, capsys, monkeypatch):
    from jumploci import toric

    # C_24 in degree 1 needs 2,784 tests of vertex sets
    cycle = {"facets": [[v, v % 24 + 1] for v in range(1, 25)], "n": 24}
    complex_file = write_json(tmp_path, "c24.json", cycle)
    monkeypatch.setattr(toric, "ORACLE_CALL_LIMIT", 1000)
    toric.toric_resonance.cache_clear()
    code, out = run_cli(capsys, "toric", "res", "--complex", complex_file)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "precondition" and "after 1001 tests" in err["message"]
    monkeypatch.undo()
    code, out = run_cli(capsys, "toric", "res", "--complex", complex_file)
    assert code == 0 and len(json.loads(out)["resonance"]["subsets"]) == 252


def test_parse_errors_exit_3(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, out = run_cli(capsys, "tcone", "--poly", str(broken))
    assert code == 3
    assert json.loads(out)["error"]["type"] == "parse"

    code, out = run_cli(capsys, "tcone", "--poly", str(tmp_path / "missing.json"))
    assert code == 3
    assert json.loads(out)["error"]["type"] == "parse"

    with pytest.raises(SystemExit) as exc:
        main(["toric", "res", "--complex", "x.json", "--badflag"])
    assert exc.value.code == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "parse"


_COMPLEX = {"n": 3, "facets": [[1, 2], [2, 3]]}
_ALGEBRA = {
    "dims": [1, 2, 1],
    "mult": [{"deg": 1, "table": [[["0"], ["1"]], [["-1"], ["0"]]]}],
}
_MODEL = {
    "n": 2,
    "components": [{"direction": [["0", "1"]], "q": ["1/2", "0"]}],
    "isolated": [],
}
_WITNESS = {
    "n": 3,
    "component": {"direction": [["0", "0", "1"]], "q": ["1/2", "0", "0"]},
    "resonance": {"n": 3, "components": [{"basis": [["1", "0", "0"]]}]},
}
_T_MINUS_1 = [{"exponents": [1], "coeff": "1"}, {"exponents": [0], "coeff": "-1"}]

# argv with one-letter placeholders for input files, and the files' contents:
# each holds a float rational or a count that is not a JSON integer.
NON_INTEGER_INPUTS = {
    "plane-entry": (
        ["toric", "omega", "--complex", "K", "--plane", "P", "--r", "1"],
        {"K": _COMPLEX, "P": {"n": 3, "basis": [[0.1, 1, 0]]}},
    ),
    "complex-n": (["toric", "res", "--complex", "K"], {"K": {**_COMPLEX, "n": 3.0}}),
    "point-entry": (
        ["aomoto", "betti", "--algebra", "A", "--point", "P"],
        {"A": _ALGEBRA, "P": [0.1, 0.2]},
    ),
    "point-bool": (
        ["aomoto", "betti", "--algebra", "A", "--point", "P"],
        {"A": _ALGEBRA, "P": [True, False]},
    ),
    "algebra-dim": (
        ["aomoto", "betti", "--algebra", "A", "--point", "P"],
        {"A": {**_ALGEBRA, "dims": [1, 2.0, 1]}, "P": ["1", "0"]},
    ),
    "model-n": (
        ["cv", "omega", "--model", "M", "--plane", "P"],
        {"M": {**_MODEL, "n": 2.7}, "P": {"n": 2, "basis": [["1", "0"]]}},
    ),
    "classify-degree": (
        ["cv", "classify", "--model", "M"],
        {
            "M": {
                "degrees": [
                    {"degree": 1.5, "model": _MODEL, "resonance": {"n": 2, "components": []}}
                ]
            }
        },
    ),
    "forms-entry": (
        ["arr", "points", "--forms", "F"],
        {"F": [[0.5, 0, 0], ["0", "1", "0"], ["0", "0", "1"]]},
    ),
    "witness-translation": (
        ["cv", "witness", "--model", "M"],
        {"M": {**_WITNESS, "component": {"direction": [["0", "0", "1"]], "q": [0.5, 0, 0]}}},
    ),
    "poly-n_vars": (
        ["linkcv", "--poly", "F"],
        {"F": {"n_vars": 1.0, "terms": _T_MINUS_1}},
    ),
    "poly-exponent": (
        ["tcone", "--poly", "F"],
        {"F": {"n_vars": 1, "terms": [{"exponents": [1.5], "coeff": "1"}, _T_MINUS_1[1]]}},
    ),
}


@pytest.mark.parametrize(
    "argv, files", NON_INTEGER_INPUTS.values(), ids=NON_INTEGER_INPUTS.keys()
)
def test_floats_and_non_integer_counts_exit_3(tmp_path, capsys, argv, files):
    paths = {k: write_json(tmp_path, f"{k}.json", data) for k, data in files.items()}
    code, out = run_cli(capsys, *(paths.get(a, a) for a in argv))
    assert code == 3
    assert json.loads(out)["error"]["type"] == "parse"


def test_round_trip_arrangement_output(tmp_path, capsys):
    forms = write_json(
        tmp_path,
        "forms.json",
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["0", "1", "-1"]],
    )
    code, out = run_cli(capsys, "arr", "res1", "--forms", forms)
    assert code == 0
    rep = json.loads(out)
    # the emitted arrangement re-parses through the documented input shape
    arr = codec.read_arrangement(rep)
    assert len(arr.components) == len(rep["components"])


def _poly1(terms):
    return {
        "n_vars": 1,
        "terms": [{"exponents": [e], "coeff": c} for e, c in terms],
    }


def test_cvchain_accepts_laurent_entries(tmp_path, capsys):
    chain = write_json(
        tmp_path,
        "c.json",
        {"ranks": [1, 1], "boundaries": [[[_poly1([(-1, "1"), (0, "-1")])]]]},
    )
    code, out = run_cli(capsys, "cvchain", "--chain", chain, "--degree", "0")
    assert code == 0
    assert json.loads(out)["w_polynomial"] == {
        "n_vars": 1,
        "terms": [
            {"coeff": "-1", "exponents": [0]},
            {"coeff": "1", "exponents": [1]},
        ],
    }


def test_one_variable_commands_do_not_import_sympy(tmp_path):
    # a lazy import of sympy costs about 0.2 s of start-up per process
    t_minus_1 = _poly1([(1, "1"), (0, "-1")])
    chain = write_json(
        tmp_path,
        "c.json",
        {
            "ranks": [2, 2],
            "boundaries": [
                [
                    [t_minus_1, _poly1([(-1, "2")])],
                    [_poly1([(0, "1/2")]), _poly1([(2, "1"), (0, "-1")])],
                ]
            ],
        },
    )
    # Phi_1^2 * Phi_3 * Phi_12 = (t - 1)^2 (t^2 + t + 1)(t^4 - t^2 + 1)
    product = write_json(
        tmp_path,
        "d.json",
        _poly1(
            [(8, "1"), (7, "-1"), (6, "-1"), (4, "2"), (2, "-1"), (1, "-1"),
             (0, "1")]
        ),
    )
    commands = [
        ["fixtures", "run", "trefoil"],
        ["fixtures", "run", "s1s2"],
        ["cvchain", "--chain", chain, "--degree", "0"],
        ["linkcv", "--poly", product],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from jumploci.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('sympy' in sys.modules)\n"
    )
    src = str(Path(jumploci.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["fixtures", "list"], set()),
        (["fixtures", "run", "torus3"], {"qlinalg", "simplicial", "toric"}),
        (["fixtures", "run", "koszul3"], {"aomoto", "qlinalg"}),
    ],
)
def test_commands_load_only_the_modules_they_use(argv, modules):
    script = (
        "import contextlib, io, sys\n"
        "from jumploci.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('jumploci.')))\n"
    )
    src = str(Path(jumploci.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert loaded == {f"jumploci.{m}" for m in modules | {"cli", "codec", "fixtures"}}
