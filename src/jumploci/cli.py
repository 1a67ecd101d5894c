"""Command-line front end: JSON in, deterministic JSON or TSV out.

Exit codes: 0 on success, 2 when a precondition is violated (the error
is printed as a machine-readable JSON object), 3 on parse errors —
malformed command lines or malformed input files.  All rationals are
serialized as "p/q" strings; no floats appear in any input or output.
Reports are byte-reproducible for a fixed command line and seed.
"""

import argparse
import json
import sys
from fractions import Fraction

Q = Fraction


class CliParseError(Exception):
    """Unreadable or structurally invalid input."""


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise CliParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise CliParseError(f"{path} is not valid JSON: {e}") from e


def _structure(fn, data, what):
    try:
        return fn(data)
    except CliParseError:
        raise
    except Exception as e:
        raise CliParseError(f"bad {what}: {e}") from e


def _parse_poly(data):
    from .laurent import LaurentPolynomial

    if isinstance(data, dict):
        return LaurentPolynomial.from_json(data["terms"], data.get("n_vars"))
    return LaurentPolynomial.from_json(data)


def _parse_poly_or_list(data):
    """A polynomial file may hold one polynomial or a list of them."""
    if isinstance(data, list) and data and isinstance(data[0], dict) and "terms" in data[0]:
        return [_parse_poly(d) for d in data]
    if isinstance(data, dict) and "polys" in data:
        return [_parse_poly(d) for d in data["polys"]]
    return [_parse_poly(data)]


def _parse_complex(data):
    from .simplicial import SimplicialComplex

    if isinstance(data, dict):
        return SimplicialComplex(data.get("facets", ()), data.get("n"))
    return SimplicialComplex(data)


def _parse_subspace(data):
    from .qlinalg import RationalSubspace

    if isinstance(data, dict):
        basis = data.get("basis", [])
        n = data.get("n")
    else:
        basis, n = data, None
    rows = [[Q(x) for x in row] for row in basis]
    if n is None:
        if not rows:
            raise CliParseError("subspace needs 'n' when the basis is empty")
        n = len(rows[0])
    return RationalSubspace.span(int(n), rows)


def _parse_arrangement(data):
    from .qlinalg import RationalSubspace, SubspaceArrangement

    n = int(data["n"])
    comps = [
        RationalSubspace.span(n, [[Q(x) for x in row] for row in c["basis"]])
        for c in data.get("components", [])
    ]
    return SubspaceArrangement(n, comps)


def _parse_chain(data):
    from .laurent import EquivariantChainComplex1

    ranks = data["ranks"]
    boundaries = []
    for mat in data.get("boundaries", []):
        boundaries.append(
            [[_parse_poly(entry) for entry in row] for row in mat]
        )
    return EquivariantChainComplex1(ranks, boundaries)


def _parse_point(data):
    if isinstance(data, dict):
        data = data["point"]
    return tuple(Q(x) for x in data)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _emit(report, fmt):
    if fmt == "tsv":
        sys.stdout.write("".join(f"{k}\t{v}\n" for k, v in _flatten(report)))
    else:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, (list, tuple)):
        for idx, item in enumerate(obj):
            yield from _flatten(item, f"{prefix}{idx}.")
    else:
        if obj is None:
            rendered = "null"
        elif obj is True:
            rendered = "true"
        elif obj is False:
            rendered = "false"
        else:
            rendered = str(obj)
        yield (prefix[:-1] if prefix else "value", rendered)


def _error_object(kind, message):
    return {"error": {"type": kind, "message": str(message)}}


# ---------------------------------------------------------------------------
# handlers: each imports the modules it uses, so a run loads only those
# ---------------------------------------------------------------------------


def _cmd_toric_res(args):
    from .fixtures import _coord_json
    from .toric import toric_resonance

    k = _structure(_parse_complex, _load_json(args.complex), "simplicial complex")
    arr = toric_resonance(k, args.degree, args.depth)
    return {"degree": args.degree, "depth": args.depth, "resonance": _coord_json(arr)}


def _cmd_toric_cv(args):
    from .fixtures import _coord_json
    from .toric import toric_cv

    k = _structure(_parse_complex, _load_json(args.complex), "simplicial complex")
    arr = toric_cv(k, args.degree, args.depth)
    return {"degree": args.degree, "depth": args.depth, "cv": _coord_json(arr)}


def _cmd_toric_omega(args):
    from .toric import toric_omega_member

    k = _structure(_parse_complex, _load_json(args.complex), "simplicial complex")
    plane = _structure(_parse_subspace, _load_json(args.plane), "plane")
    member = toric_omega_member(k, args.degree, args.r, plane)
    return {"degree": args.degree, "r": args.r, "member": member}


def _cmd_tcone(args):
    from .fixtures import _poly_json
    from .laurent import compare_tangent_cones, exp_tangent_cone
    from .qlinalg import arrangement_to_json

    polys = _structure(_parse_poly_or_list, _load_json(args.poly), "polynomial")
    if len(polys) == 1:
        rep = compare_tangent_cones(polys[0])
        return {
            "tau1": arrangement_to_json(rep["tau1"]),
            "tc1": _poly_json(rep["tc1"]),
            "tau1_inside_tc1": rep["tau1_inside_tc1"],
            "equal": rep["equal"],
        }
    return {"tau1": arrangement_to_json(exp_tangent_cone(polys))}


def _cmd_linkcv(args):
    from .fixtures import _poly_json
    from .laurent import link_cv1

    delta = _structure(_parse_poly, _load_json(args.poly), "polynomial")
    link = link_cv1(delta)
    report = link.to_json()
    report["hypersurface_contains_identity"] = link.hypersurface_contains_identity()
    if delta.n_vars == 1 and not delta.is_zero():
        torsion = link.torsion_model()
        report["model"] = torsion["model"].to_json()
        report["nontorsion_factors"] = [
            _poly_json(p) for p in torsion["nontorsion_factors"]
        ]
    return report


def _cmd_cvchain(args):
    from .fixtures import _poly_json
    from .laurent import cv_rank1_chain

    chain = _structure(_parse_chain, _load_json(args.chain), "chain complex")
    w = cv_rank1_chain(chain, args.degree, args.depth)
    return {
        "degree": args.degree,
        "depth": args.depth,
        "w_polynomial": _poly_json(w),
    }


def _cmd_cv_classify(args):
    from .cvmodel import CVModel, classify_straightness

    data = _load_json(args.model)

    def build(d):
        models, res = {}, {}
        for entry in d["degrees"]:
            deg = int(entry["degree"])
            models[deg] = CVModel.from_json(entry["model"])
            res[deg] = _parse_arrangement(entry["resonance"])
        return models, res

    models, res = _structure(build, data, "classification input")
    return classify_straightness(models, res)


def _cmd_cv_omega(args):
    from .cvmodel import CVModel, omega_member

    model = _structure(CVModel.from_json, _load_json(args.model), "model")
    plane = _structure(_parse_subspace, _load_json(args.plane), "plane")
    return {"member": omega_member(model, plane)}


def _cmd_cv_witness(args):
    from .cvmodel import TranslatedTorus, strictness_witness
    from .fixtures import _subspace_json

    data = _load_json(args.model)

    def build(d):
        n = int(d["n"])
        component = TranslatedTorus.from_json(d["component"], n)
        res = _parse_arrangement(d["resonance"])
        return component, res

    component, res = _structure(build, data, "witness input")
    witness = strictness_witness(component, res, args.bound)
    if witness is None:
        return {"witness": None, "reason": "search exhausted within bound"}
    return {"witness": _subspace_json(witness)}


def _cmd_arr_points(args):
    from .arrangements import ProjLineArrangement, multiple_points
    from .fixtures import _point_json

    arr = _structure(ProjLineArrangement.from_json, _load_json(args.forms), "forms")
    return {"points": [_point_json(p) for p in multiple_points(arr)]}


def _cmd_arr_res1(args):
    from .arrangements import ProjLineArrangement, r1_arrangement, r1_completeness_note
    from .qlinalg import arrangement_to_json

    arr = _structure(ProjLineArrangement.from_json, _load_json(args.forms), "forms")
    res = r1_arrangement(arr, seed=args.seed)
    report = arrangement_to_json(res)
    report["codim"] = res.codim()
    report["completeness_note"] = r1_completeness_note(arr)
    return report


def _cmd_arr_omega(args):
    from .arrangements import ProjLineArrangement, omega_bounds

    arr = _structure(ProjLineArrangement.from_json, _load_json(args.forms), "forms")
    return {"r": args.r, "answer": omega_bounds(arr, args.r)}


def _cmd_aomoto_betti(args):
    from .aomoto import GradedAlgebraPresentation, aomoto_betti

    alg = _structure(
        GradedAlgebraPresentation.from_json, _load_json(args.algebra), "algebra"
    )
    a = _structure(_parse_point, _load_json(args.point), "point")
    return {"degree": args.degree, "betti": aomoto_betti(alg, a, args.degree)}


def _cmd_aomoto_member(args):
    from .aomoto import GradedAlgebraPresentation, resonance_member

    alg = _structure(
        GradedAlgebraPresentation.from_json, _load_json(args.algebra), "algebra"
    )
    a = _structure(_parse_point, _load_json(args.point), "point")
    member = resonance_member(alg, a, args.degree, args.depth)
    return {"degree": args.degree, "depth": args.depth, "member": member}


def _cmd_fixtures_list(args):
    from .fixtures import fixture_list

    return {"fixtures": fixture_list()}


def _cmd_fixtures_run(args):
    from .fixtures import run_fixture

    return run_fixture(args.name, seed=args.seed)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with parse failures mapped to exit code 3."""

    def error(self, message):
        sys.stdout.write(
            json.dumps(_error_object("parse", message), sort_keys=True) + "\n"
        )
        raise SystemExit(3)


def _common(sub):
    sub.add_argument("--format", choices=("json", "tsv"), default="json")
    sub.add_argument("--seed", type=int, default=0)


def _toric_parser(toric):
    tsub = toric.add_subparsers(dest="subcommand", required=True)
    p = tsub.add_parser("res", help="resonance arrangement")
    p.add_argument("--complex", required=True)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--depth", type=int, default=1)
    _common(p)
    p.set_defaults(handler=_cmd_toric_res)
    p = tsub.add_parser("cv", help="character-torus locus")
    p.add_argument("--complex", required=True)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--depth", type=int, default=1)
    _common(p)
    p.set_defaults(handler=_cmd_toric_cv)
    p = tsub.add_parser("omega", help="finite-cover membership for a plane")
    p.add_argument("--complex", required=True)
    p.add_argument("--plane", required=True)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--r", type=int, required=True)
    _common(p)
    p.set_defaults(handler=_cmd_toric_omega)


def _tcone_parser(p):
    p.add_argument("--poly", required=True)
    _common(p)
    p.set_defaults(handler=_cmd_tcone)


def _linkcv_parser(p):
    p.add_argument("--poly", required=True)
    _common(p)
    p.set_defaults(handler=_cmd_linkcv)


def _cvchain_parser(p):
    p.add_argument("--chain", required=True)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--depth", type=int, default=1)
    _common(p)
    p.set_defaults(handler=_cmd_cvchain)


def _cv_parser(cv):
    csub = cv.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("classify", help="straightness conditions per degree")
    p.add_argument("--model", required=True)
    _common(p)
    p.set_defaults(handler=_cmd_cv_classify)
    p = csub.add_parser("omega", help="finite-intersection test for a plane")
    p.add_argument("--model", required=True)
    p.add_argument("--plane", required=True)
    _common(p)
    p.set_defaults(handler=_cmd_cv_omega)
    p = csub.add_parser("witness", help="search for a strictness witness plane")
    p.add_argument("--model", required=True)
    p.add_argument("--bound", type=int, default=3)
    _common(p)
    p.set_defaults(handler=_cmd_cv_witness)


def _arr_parser(arr):
    asub = arr.add_subparsers(dest="subcommand", required=True)
    p = asub.add_parser("points", help="intersection points with multiplicities")
    p.add_argument("--forms", required=True)
    _common(p)
    p.set_defaults(handler=_cmd_arr_points)
    p = asub.add_parser("res1", help="degree-1 resonance components")
    p.add_argument("--forms", required=True)
    _common(p)
    p.set_defaults(handler=_cmd_arr_res1)
    p = asub.add_parser("omega", help="coarse cover-invariant bounds")
    p.add_argument("--forms", required=True)
    p.add_argument("--r", type=int, required=True)
    _common(p)
    p.set_defaults(handler=_cmd_arr_omega)


def _aomoto_parser(aom):
    osub = aom.add_subparsers(dest="subcommand", required=True)
    p = osub.add_parser("betti", help="cohomology rank at a point")
    p.add_argument("--algebra", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--degree", type=int, default=1)
    _common(p)
    p.set_defaults(handler=_cmd_aomoto_betti)
    p = osub.add_parser("member", help="depth-d jump test at a point")
    p.add_argument("--algebra", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--depth", type=int, default=1)
    _common(p)
    p.set_defaults(handler=_cmd_aomoto_member)


def _fixtures_parser(fix):
    fsub = fix.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("list", help="names and descriptions")
    _common(p)
    p.set_defaults(handler=_cmd_fixtures_list)
    p = fsub.add_parser("run", help="run one example by name")
    p.add_argument("name")
    _common(p)
    p.set_defaults(handler=_cmd_fixtures_run)


# Top-level commands: name -> (help, function adding the command's arguments).
_COMMANDS = {
    "toric": ("toric-complex jump loci", _toric_parser),
    "tcone": ("tangent cones of a hypersurface in the torus", _tcone_parser),
    "linkcv": ("degree-1 locus from a link polynomial", _linkcv_parser),
    "cvchain": ("order polynomial of a rank-1 chain complex", _cvchain_parser),
    "cv": ("presented locus models", _cv_parser),
    "arr": ("line arrangements", _arr_parser),
    "aomoto": ("rank tests on a presented algebra", _aomoto_parser),
    "fixtures": ("built-in worked examples", _fixtures_parser),
}


def build_parser(command=None):
    """The full parser; with `command`, the other commands are left empty.

    A command line that names a command is parsed, and any error or help
    text printed, by that command's parsers alone, so leaving the others
    empty changes no output and saves building them.
    """
    parser = _Parser(prog="jumploci", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fill) in _COMMANDS.items():
        sub = top.add_parser(name, help=help_text)
        if command in (None, name):
            fill(sub)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        report = args.handler(args)
    except CliParseError as e:
        sys.stdout.write(
            json.dumps(_error_object("parse", e), sort_keys=True) + "\n"
        )
        return 3
    except Exception as e:
        # imported here so that runs which never touch arrangements skip it
        from .arrangements import OracleError

        if not isinstance(e, (ValueError, OracleError)):
            raise
        sys.stdout.write(
            json.dumps(_error_object("precondition", e), sort_keys=True) + "\n"
        )
        return 2
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
