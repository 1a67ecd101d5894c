"""Command-line front end: JSON in, deterministic JSON or TSV out.

Exit codes: 0 on success, 2 when a precondition is violated (the error
is printed as a machine-readable JSON object), 3 on parse errors —
malformed command lines or malformed input files.  `main` decodes the
input files in table order through `codec`, whose encoders build each
handler's report, so the wire format lives there: rationals go out as
"p/q" strings and come in as such strings or JSON integers, never as
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
# handlers: each imports the modules it uses, so a run loads only those, and
# takes its decoded input files after `args`, in the order of its arguments
# ---------------------------------------------------------------------------


def _cmd_toric_res(args, k):
    from .toric import toric_resonance

    arr = codec.coordinate_arrangement(toric_resonance(k, args.degree, args.depth))
    return {"degree": args.degree, "depth": args.depth, "resonance": arr}


def _cmd_toric_cv(args, k):
    from .toric import toric_cv

    arr = codec.coordinate_arrangement(toric_cv(k, args.degree, args.depth))
    return {"degree": args.degree, "depth": args.depth, "cv": arr}


def _cmd_toric_omega(args, k, plane):
    from .toric import toric_omega_member

    member = toric_omega_member(k, args.degree, args.r, plane)
    return {"degree": args.degree, "r": args.r, "member": member}


def _cmd_tcone(args, polys):
    from .laurent import compare_tangent_cones, exp_tangent_cone

    if len(polys) == 1:
        return codec.tangent_cones(compare_tangent_cones(polys[0]))
    return {"tau1": codec.arrangement(exp_tangent_cone(polys))}


def _cmd_linkcv(args, delta):
    from .laurent import link_cv1

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


def _cmd_cvchain(args, chain):
    from .laurent import cv_rank1_chain

    w = cv_rank1_chain(chain, args.degree, args.depth)
    return {
        "degree": args.degree,
        "depth": args.depth,
        "w_polynomial": codec.polynomial(w),
    }


def _cmd_cv_classify(args, classification):
    from .cvmodel import classify_straightness

    return classify_straightness(*classification)


def _cmd_cv_omega(args, model, plane):
    from .cvmodel import omega_member

    return {"member": omega_member(model, plane)}


def _cmd_cv_witness(args, witness_input):
    from .cvmodel import strictness_witness

    witness = strictness_witness(*witness_input, args.bound)
    if witness is None:
        return {"witness": None, "reason": "search exhausted within bound"}
    return {"witness": codec.subspace(witness)}


def _cmd_arr_points(args, arr):
    from .arrangements import multiple_points

    return {"points": [codec.multiple_point(p) for p in multiple_points(arr)]}


def _cmd_arr_res1(args, arr):
    from .arrangements import r1_arrangement, r1_completeness_note

    res = r1_arrangement(arr, seed=args.seed)
    report = codec.arrangement(res)
    report["codim"] = res.codim()
    report["completeness_note"] = r1_completeness_note(arr)
    return report


def _cmd_arr_omega(args, arr):
    from .arrangements import omega_bounds

    return {"r": args.r, "answer": omega_bounds(arr, args.r)}


def _cmd_aomoto_betti(args, alg, a):
    from .aomoto import aomoto_betti

    return {"degree": args.degree, "betti": aomoto_betti(alg, a, args.degree)}


def _cmd_aomoto_member(args, alg, a):
    from .aomoto import resonance_member

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


# An argument is (flag, argparse options, (decoder, what) or None): a flag
# with a decoder names an input file, decoded by `_read` before the handler
# runs and reported as "bad <what>" when malformed.
_REQUIRED = {"required": True}
_DEGREE = ("--degree", {"type": int, "default": 1}, None)
_DEPTH = ("--depth", {"type": int, "default": 1}, None)
_R = ("--r", {"type": int, "required": True}, None)
_COMPLEX = ("--complex", _REQUIRED, (codec.read_complex, "simplicial complex"))
_PLANE = ("--plane", _REQUIRED, (codec.read_subspace, "plane"))
_FORMS = ("--forms", _REQUIRED, (codec.read_forms, "forms"))
_ALGEBRA = ("--algebra", _REQUIRED, (codec.read_algebra, "algebra"))
_POINT = ("--point", _REQUIRED, (codec.read_point, "point"))

# Each command: name -> (help, leaf) or (help, {subcommand: (help, *leaf)}),
# a leaf being (handler, arguments).  `--format` and `--seed` follow the
# arguments of every leaf.
_COMMANDS = {
    "toric": ("toric-complex jump loci", {
        "res": ("resonance arrangement", _cmd_toric_res, (_COMPLEX, _DEGREE, _DEPTH)),
        "cv": ("character-torus locus", _cmd_toric_cv, (_COMPLEX, _DEGREE, _DEPTH)),
        "omega": ("finite-cover membership for a plane", _cmd_toric_omega,
                  (_COMPLEX, _PLANE, _DEGREE, _R)),
    }),
    "tcone": ("tangent cones of a hypersurface in the torus", (
        _cmd_tcone, (("--poly", _REQUIRED, (codec.read_polynomials, "polynomial")),))),
    "linkcv": ("degree-1 locus from a link polynomial", (
        _cmd_linkcv, (("--poly", _REQUIRED, (codec.read_polynomial, "polynomial")),))),
    "cvchain": ("order polynomial of a rank-1 chain complex", (_cmd_cvchain, (
        ("--chain", _REQUIRED, (codec.read_chain, "chain complex")), _DEGREE, _DEPTH))),
    "cv": ("presented locus models", {
        "classify": ("straightness conditions per degree", _cmd_cv_classify, (
            ("--model", _REQUIRED, (codec.read_classification, "classification input")),)),
        "omega": ("finite-intersection test for a plane", _cmd_cv_omega, (
            ("--model", _REQUIRED, (codec.read_model, "model")), _PLANE)),
        "witness": ("search for a strictness witness plane", _cmd_cv_witness, (
            ("--model", _REQUIRED, (codec.read_witness_input, "witness input")),
            ("--bound", {"type": int, "default": 3}, None))),
    }),
    "arr": ("line arrangements", {
        "points": ("intersection points with multiplicities", _cmd_arr_points, (_FORMS,)),
        "res1": ("degree-1 resonance components", _cmd_arr_res1, (_FORMS,)),
        "omega": ("coarse cover-invariant bounds", _cmd_arr_omega, (_FORMS, _R)),
    }),
    "aomoto": ("rank tests on a presented algebra", {
        "betti": ("cohomology rank at a point", _cmd_aomoto_betti,
                  (_ALGEBRA, _POINT, _DEGREE)),
        "member": ("depth-d jump test at a point", _cmd_aomoto_member,
                   (_ALGEBRA, _POINT, _DEGREE, _DEPTH)),
    }),
    "fixtures": ("built-in worked examples", {
        "list": ("names and descriptions", _cmd_fixtures_list, ()),
        "run": ("run one example by name", _cmd_fixtures_run, (("name", {}, None),)),
    }),
}


def build_parser(command=None):
    """The full parser; with `command`, the other commands are left empty.

    A command line that names a command is parsed, and any error or help
    text printed, by that command's parsers alone, so leaving the others
    empty changes no output and saves building them.
    """
    parser = _Parser(prog="jumploci", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, body) in _COMMANDS.items():
        sub = top.add_parser(name, help=help_text)
        if command not in (None, name):
            continue
        if isinstance(body, dict):
            subs = sub.add_subparsers(dest="subcommand", required=True)
            leaves = [
                (subs.add_parser(s, help=h), *leaf) for s, (h, *leaf) in body.items()
            ]
        else:
            leaves = [(sub, *body)]
        for p, handler, arguments in leaves:
            for flag, options, _ in arguments:
                p.add_argument(flag, **options)
            p.add_argument("--format", choices=("json", "tsv"), default="json")
            p.add_argument("--seed", type=int, default=0)
            p.set_defaults(handler=handler, arguments=arguments)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        inputs = [
            _read(getattr(args, flag.lstrip("-")), *decode)
            for flag, _, decode in args.arguments
            if decode
        ]
        report = args.handler(args, *inputs)
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
