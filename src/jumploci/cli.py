"""Command-line front end: JSON in, deterministic JSON or TSV out.

Exit codes: 0 on success, 2 when a precondition is violated (the error
is printed as a machine-readable JSON object), 3 on parse errors —
malformed command lines or malformed input files.  Each handler reads
its input files through one decoder of `codec` and builds its report
from `codec` encoders, so the wire format lives there: rationals go out
as "p/q" strings and come in as such strings or JSON integers, never as
floats.  Reports are byte-reproducible for a fixed command line and seed.
"""

import argparse
import json
import sys

from . import codec


class CliParseError(Exception):
    """Unreadable or structurally invalid input."""


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _read(path, decode, what):
    """Load the JSON file at `path` and decode it.  Any failure is a parse
    error, except a complex refused as too large or an algebra refused as
    inconsistent: those are well formed, so they are preconditions."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise CliParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise CliParseError(f"{path} is not valid JSON: {e}") from e
    try:
        return decode(data)
    except Exception as e:
        # imported here, on failure only, so that other runs skip them
        from .aomoto import InconsistentPresentation
        from .simplicial import ComplexTooLarge

        if isinstance(e, (ComplexTooLarge, InconsistentPresentation)):
            raise  # well formed but refused: a precondition, exit 2
        raise CliParseError(f"bad {what}: {e}") from e


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
    from .toric import toric_resonance

    k = _read(args.complex, codec.read_complex, "simplicial complex")
    arr = codec.coordinate_arrangement(toric_resonance(k, args.degree, args.depth))
    return {"degree": args.degree, "depth": args.depth, "resonance": arr}


def _cmd_toric_cv(args):
    from .toric import toric_cv

    k = _read(args.complex, codec.read_complex, "simplicial complex")
    arr = codec.coordinate_arrangement(toric_cv(k, args.degree, args.depth))
    return {"degree": args.degree, "depth": args.depth, "cv": arr}


def _cmd_toric_omega(args):
    from .toric import toric_omega_member

    k = _read(args.complex, codec.read_complex, "simplicial complex")
    plane = _read(args.plane, codec.read_subspace, "plane")
    member = toric_omega_member(k, args.degree, args.r, plane)
    return {"degree": args.degree, "r": args.r, "member": member}


def _cmd_tcone(args):
    from .laurent import compare_tangent_cones, exp_tangent_cone

    polys = _read(args.poly, codec.read_polynomials, "polynomial")
    if len(polys) == 1:
        return codec.tangent_cones(compare_tangent_cones(polys[0]))
    return {"tau1": codec.arrangement(exp_tangent_cone(polys))}


def _cmd_linkcv(args):
    from .laurent import link_cv1

    delta = _read(args.poly, codec.read_polynomial, "polynomial")
    link = link_cv1(delta)
    report = codec.link(link)
    report["hypersurface_contains_identity"] = link.hypersurface_contains_identity()
    if delta.n_vars == 1 and not delta.is_zero():
        torsion = link.torsion_model()
        report["model"] = codec.model(torsion["model"])
        report["nontorsion_factors"] = [
            codec.polynomial(p) for p in torsion["nontorsion_factors"]
        ]
    return report


def _cmd_cvchain(args):
    from .laurent import cv_rank1_chain

    chain = _read(args.chain, codec.read_chain, "chain complex")
    w = cv_rank1_chain(chain, args.degree, args.depth)
    return {
        "degree": args.degree,
        "depth": args.depth,
        "w_polynomial": codec.polynomial(w),
    }


def _cmd_cv_classify(args):
    from .cvmodel import classify_straightness

    models, res = _read(args.model, codec.read_classification, "classification input")
    return classify_straightness(models, res)


def _cmd_cv_omega(args):
    from .cvmodel import omega_member

    model = _read(args.model, codec.read_model, "model")
    plane = _read(args.plane, codec.read_subspace, "plane")
    return {"member": omega_member(model, plane)}


def _cmd_cv_witness(args):
    from .cvmodel import strictness_witness

    component, res = _read(args.model, codec.read_witness_input, "witness input")
    witness = strictness_witness(component, res, args.bound)
    if witness is None:
        return {"witness": None, "reason": "search exhausted within bound"}
    return {"witness": codec.subspace(witness)}


def _cmd_arr_points(args):
    from .arrangements import multiple_points

    arr = _read(args.forms, codec.read_forms, "forms")
    return {"points": [codec.multiple_point(p) for p in multiple_points(arr)]}


def _cmd_arr_res1(args):
    from .arrangements import r1_arrangement, r1_completeness_note

    arr = _read(args.forms, codec.read_forms, "forms")
    res = r1_arrangement(arr, seed=args.seed)
    report = codec.arrangement(res)
    report["codim"] = res.codim()
    report["completeness_note"] = r1_completeness_note(arr)
    return report


def _cmd_arr_omega(args):
    from .arrangements import omega_bounds

    arr = _read(args.forms, codec.read_forms, "forms")
    return {"r": args.r, "answer": omega_bounds(arr, args.r)}


def _cmd_aomoto_betti(args):
    from .aomoto import aomoto_betti

    alg = _read(args.algebra, codec.read_algebra, "algebra")
    a = _read(args.point, codec.read_point, "point")
    return {"degree": args.degree, "betti": aomoto_betti(alg, a, args.degree)}


def _cmd_aomoto_member(args):
    from .aomoto import resonance_member

    alg = _read(args.algebra, codec.read_algebra, "algebra")
    a = _read(args.point, codec.read_point, "point")
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
