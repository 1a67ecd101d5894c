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
from jumploci.cvmodel import omega_member, strictness_witness
from jumploci.laurent import exp_tangent_cone
from jumploci.toric import toric_cv, toric_omega_member

from oracles import past_the_cone_step_limit


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

    # degrees above dim K + 1 = 2 answer as degree 2 does, at once
    line = write_json(tmp_path, "e1.json", {"n": 3, "basis": [["1", "0", "0"]]})
    for degree in ("2", "100000"):
        start = time.perf_counter()
        code, out = run_cli(
            capsys, "toric", "omega", "--complex", complex_file,
            "--plane", line, "--r", "1", "--degree", degree,
        )
        assert time.perf_counter() - start < 1
        assert code == 0
        assert json.loads(out) == {"degree": int(degree), "r": 1, "member": False}


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


def test_depth_zero_membership_refuses_bad_input(tmp_path, capsys):
    algebra = write_json(
        tmp_path,
        "alg.json",
        {
            "dims": [1, 2, 1],
            "mult": [{"deg": 1, "table": [[["0"], ["1"]], [["-1"], ["0"]]]}],
        },
    )
    origin = write_json(tmp_path, "a0.json", ["0", "0"])
    three = write_json(tmp_path, "a3.json", ["0", "0", "1"])
    for point, degree, message in (
        (origin, "7", "degree out of range: i = 7, need 0 <= i <= 1"),
        (three, "1", "point length 3 != c_1 = 2"),
    ):
        for depth in ("0", "1"):
            code, out = run_cli(
                capsys, "aomoto", "member", "--algebra", algebra, "--point", point,
                "--degree", degree, "--depth", depth,
            )
            assert code == 2
            assert json.loads(out) == {"error": {"type": "precondition", "message": message}}
    code, out = run_cli(
        capsys, "aomoto", "member", "--algebra", algebra, "--point", origin, "--depth", "0"
    )
    assert code == 0
    assert json.loads(out) == {"degree": 1, "depth": 0, "member": True}


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

    # 11 terms are answered; 19 terms and a cover search over its step
    # limit are refused
    terms = [{"exponents": [k], "coeff": "1"} for k in range(1, 11)]
    terms.append({"exponents": [0], "coeff": "-10"})
    poly = write_json(tmp_path, "g.json", {"n_vars": 1, "terms": terms})
    code, out = run_cli(capsys, "tcone", "--poly", poly)
    assert code == 0 and json.loads(out)["tau1"]["trivial"] is True
    terms = [{"exponents": [k, k * k % 7], "coeff": "1"} for k in range(1, 19)]
    terms.append({"exponents": [0, 0], "coeff": "-18"})
    poly = write_json(tmp_path, "g19.json", {"n_vars": 2, "terms": terms})
    code, out = run_cli(capsys, "tcone", "--poly", poly)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "precondition" and "support too large" in err["message"]
    poly = write_json(tmp_path, "steps.json", codec.polynomial(past_the_cone_step_limit()))
    start = time.perf_counter()
    code, out = run_cli(capsys, "tcone", "--poly", poly)
    assert time.perf_counter() - start < 5
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "precondition" and "tangent-cone search" in err["message"]

    # one facet on 24 vertices would have 16.8 million faces
    complex_file = write_json(tmp_path, "k24.json", [list(range(1, 25))])
    start = time.perf_counter()
    code, out = run_cli(capsys, "toric", "res", "--complex", complex_file)
    assert time.perf_counter() - start < 1
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "precondition" and "complex too large" in err["message"]

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


def test_negative_sizes_exit_3(tmp_path, capsys):
    complex_file = write_json(tmp_path, "k.json", {"n": -1, "facets": []})
    code, out = run_cli(capsys, "toric", "res", "--complex", complex_file)
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "parse",
        "message": "bad simplicial complex: vertex count must be >= 0",
    }
    model = {"n": -2, "components": [], "isolated": []}
    classify = write_json(
        tmp_path,
        "c.json",
        {"degrees": [{"degree": 1, "model": model, "resonance": {"n": -2}}]},
    )
    code, out = run_cli(capsys, "cv", "classify", "--model", classify)
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "parse",
        "message": "bad classification input: ambient dimension must be >= 0",
    }


def test_chain_with_a_huge_degree_is_parsed_sparsely(tmp_path):
    zero = {"n_vars": 1, "terms": []}
    # the composition check must not write t^(10^9) - 1 out densely: the
    # subprocess gets 1 GB of address space and a timeout, so a dense
    # check fails the test instead of exhausting memory
    chain = write_json(
        tmp_path,
        "c.json",
        {"ranks": [1, 1, 1], "boundaries": [[[HUGE_DEGREE]], [[zero]]]},
    )
    script = (
        "import contextlib, io, json, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from jumploci.cli import main\n"
        "for degree in ('0', '1', '2'):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        f"        code = main(['cvchain', '--chain', {chain!r}, '--degree', degree])\n"
        "    print(json.dumps([code, json.loads(out.getvalue())]))\n"
    )
    src = str(Path(jumploci.__file__).resolve().parents[1])
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert done.returncode == 0, done.stderr
    runs = [json.loads(line) for line in done.stdout.splitlines()]
    for code, rep in runs[:2]:
        assert code == 2
        assert rep["error"]["type"] == "precondition"
        assert "degree span too large" in rep["error"]["message"]
    assert runs[2] == [
        0,
        {"degree": 2, "depth": 1, "w_polynomial": {"n_vars": 1, "terms": []}},
    ]


def test_arrangement_with_no_lines_answers_at_once(tmp_path):
    # Q^0 has no nonzero point, so no point off the union can be sampled; a
    # search for one would never end, hence the subprocess and its timeout
    forms = write_json(tmp_path, "none.json", [])
    commands = [
        ["arr", "res1", "--forms", forms],
        ["arr", "points", "--forms", forms],
        ["arr", "omega", "--forms", forms, "--r", "1"],
    ]
    script = (
        "import contextlib, io, json\n"
        "from jumploci.arrangements import ProjLineArrangement, r1_arrangement\n"
        "from jumploci.cli import main\n"
        "from jumploci.qlinalg import SubspaceArrangement\n"
        "assert r1_arrangement(ProjLineArrangement([])) == SubspaceArrangement(0)\n"
        f"for argv in {commands!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(argv) == 0, argv\n"
        "    print(json.dumps(json.loads(out.getvalue()), sort_keys=True))\n"
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
    assert [json.loads(line) for line in done.stdout.splitlines()] == [
        {
            "codim": 0,
            "completeness_note": None,
            "components": [],
            "n": 0,
            "trivial": True,
        },
        {"points": []},
        {"answer": "full", "r": 1},
    ]


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
    # true would otherwise be taken as vertex 1
    "complex-vertex-bool": (["toric", "res", "--complex", "K"], {"K": [[True, 2], [2, 3]]}),
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


# Paths that no other test runs, each with the library's answer through
# codec: argv with one-letter placeholders for input files, the files, and
# a function of the files giving the expected report.
LIBRARY_ANSWERS = {
    "toric-cv": (
        ["toric", "cv", "--complex", "K"],
        {"K": _COMPLEX},
        lambda f: {
            "degree": 1,
            "depth": 1,
            "cv": codec.coordinate_arrangement(toric_cv(codec.read_complex(f["K"]), 1, 1)),
        },
    ),
    "tcone-list": (
        ["tcone", "--poly", "F"],
        {"F": [POLY_CHAIN_LINK, {"n_vars": 3, "terms": [
            {"exponents": [1, 1, 1], "coeff": "1"}, {"exponents": [0, 0, 0], "coeff": "-1"}]}]},
        lambda f: {"tau1": codec.arrangement(exp_tangent_cone(codec.read_polynomials(f["F"])))},
    ),
    # the TSV cases print null, true and false
    "cv-omega-tsv": (
        ["cv", "omega", "--model", "M", "--plane", "P", "--format", "tsv"],
        {
            "M": {**_MODEL, "components": [{"direction": [["0", "1"]], "q": ["0", "1/3"]}]},
            "P": {"n": 2, "basis": [["0", "1"]]},
        },
        lambda f: {"member": omega_member(codec.read_model(f["M"]), codec.read_subspace(f["P"]))},
    ),
    "cv-witness-none-tsv": (
        ["cv", "witness", "--model", "M", "--bound", "0", "--format", "tsv"],
        {"M": _WITNESS},
        lambda f: {
            "witness": strictness_witness(*codec.read_witness_input(f["M"]), 0),
            "reason": "search exhausted within bound",
        },
    ),
    "toric-omega-tsv": (
        ["toric", "omega", "--complex", "K", "--plane", "P", "--r", "1", "--format", "tsv"],
        {"K": _COMPLEX, "P": {"n": 3, "basis": [["1", "1", "1"]]}},
        lambda f: {
            "degree": 1,
            "r": 1,
            "member": toric_omega_member(
                codec.read_complex(f["K"]), 1, 1, codec.read_subspace(f["P"])
            ),
        },
    ),
}


@pytest.mark.parametrize(
    "argv, files, answer", LIBRARY_ANSWERS.values(), ids=LIBRARY_ANSWERS.keys()
)
def test_commands_print_the_library_answer(tmp_path, capsys, argv, files, answer):
    paths = {k: write_json(tmp_path, f"{k}.json", data) for k, data in files.items()}
    code, out = run_cli(capsys, *(paths.get(a, a) for a in argv))
    assert code == 0
    expected = answer(files)
    if "tsv" in argv:
        # a flat report: strings as they are, everything else as JSON spells it
        assert out == "".join(
            f"{k}\t{v if isinstance(v, str) else json.dumps(v)}\n"
            for k, v in sorted(expected.items())
        )
    else:
        assert json.loads(out) == expected


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
        # f(1) != 0: the tangent-cone form is a constant, with no factors
        ["tcone", "--poly", write_json(tmp_path, "e.json", _poly1([(2, "1"), (0, "1")]))],
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


def test_tcone_does_not_import_sympy(tmp_path):
    # the cones are compared by exact division, so no form is factored
    def poly(n, terms):
        return {
            "n_vars": n,
            "terms": [{"exponents": list(e), "coeff": c} for e, c in terms],
        }

    forms = [
        # (t1 - 1)^2 + (t2 - 1)^2: z1^2 + z2^2 does not split over Q
        poly(2, [((2, 0), "1"), ((1, 0), "-2"), ((0, 2), "1"), ((0, 1), "-2"), ((0, 0), "2")]),
        # (t1 - 1)^2 (t2 - 1): z1^2 z2 splits into repeated linear factors
        poly(2, [((2, 1), "1"), ((1, 1), "-2"), ((0, 1), "1"), ((2, 0), "-1"), ((1, 0), "2"), ((0, 0), "-1")]),
        # (t1 t2 - 1)(t3 - 1) + (t1 - 1)^2: a quadric in three variables
        poly(3, [((1, 1, 1), "1"), ((1, 1, 0), "-1"), ((0, 0, 1), "-1"), ((2, 0, 0), "1"), ((1, 0, 0), "-2"), ((0, 0, 0), "2")]),
        POLY_CHAIN_LINK,
    ]
    commands = [
        ["tcone", "--poly", write_json(tmp_path, f"f{i}.json", f)]
        for i, f in enumerate(forms)
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from jumploci.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(argv) == 0, argv\n"
        "    rep = json.loads(out.getvalue())\n"
        "    print(rep['equal'], max(sum(t['exponents']) for t in rep['tc1']['terms']))\n"
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
    assert done.stdout.splitlines() == ["False 2", "True 3", "False 2", "False 1", "False"]


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
