"""The JSON wire format: every shape that `jumploci` reads or prints.

Encoders turn values into dicts and lists of JSON types, with rationals
as "p/q" strings.  Decoders build values from parsed JSON and raise on
anything malformed.  They read rationals through `qlinalg.qscalar`, so a
rational is a JSON integer or a "p/q" string and never a float, and they
take counts and dimensions (`n`, `n_vars`, `degree`, `dims`, `deg`,
`ranks`, exponents) only as JSON integers.  Nothing from the package is
imported at module level: each decoder imports its value type when it
runs, so loading this module loads no value module.
"""


def _rationals(v):
    return [str(x) for x in v]


def _matrix(rows):
    return [_rationals(row) for row in rows]


def _integer(x, what):
    """A JSON integer; floats and booleans are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _rows(rows):
    from .qlinalg import qvector

    return [qvector(row) for row in rows]


# -- encoders ----------------------------------------------------------------


def subspace(s):
    return {"n": s.n, "dim": s.dim, "basis": _matrix(s.basis)}


def arrangement(arr):
    comps = [{"dim": c.dim, "basis": _matrix(c.basis)} for c in arr.components]
    return {"n": arr.n, "components": comps, "trivial": arr.is_trivial()}


def coordinate_arrangement(arr):
    """A `toric.CoordinateArrangement`."""
    subsets = [list(s) for s in arr.subsets]
    return {"n": arr.n, "subsets": subsets, "contains_origin": arr.contains_origin}


def terms(p):
    """The bare term list of a Laurent polynomial."""
    return [{"exponents": list(e), "coeff": str(c)} for e, c in p.terms.items()]


def polynomial(p):
    return {"n_vars": p.n_vars, "terms": terms(p)}


def multiple_point(mp):
    point = _rationals(mp.point)
    return {"point": point, "lines": list(mp.lines), "multiplicity": mp.multiplicity}


def torus(c):
    """A translated torus; its ambient dimension is left to the container."""
    return {"direction": _matrix(c.direction.basis), "q": _rationals(c.q)}


def model(m):
    comps = [torus(c) for c in m.components]
    return {"n": m.n, "components": comps, "isolated": _matrix(m.isolated_points)}


def tangent_cones(rep):
    """The report of `laurent.compare_tangent_cones`."""
    return {
        "tau1": arrangement(rep["tau1"]),
        "tc1": polynomial(rep["tc1"]),
        "tau1_inside_tc1": rep["tau1_inside_tc1"],
        "equal": rep["equal"],
    }


def link(lk):
    """A `laurent.LinkCV1`, its polynomial as the bare term list."""
    return {"n": lk.n_vars, "delta": terms(lk.delta), "tau1": arrangement(lk.tau1())}


# -- decoders ----------------------------------------------------------------


def read_polynomial(data):
    """{"n_vars", "terms"}, or a bare term list whose first exponent
    vector gives the variable count."""
    from .laurent import LaurentPolynomial

    n_vars = None
    if isinstance(data, dict):
        n_vars, data = data.get("n_vars"), data["terms"]
    if n_vars is None:
        if not data:
            raise ValueError("cannot infer variable count from an empty term list")
        n_vars = len(data[0]["exponents"])
    pairs = [([_integer(e, "an exponent") for e in t["exponents"]], t["coeff"]) for t in data]
    return LaurentPolynomial(_integer(n_vars, "n_vars"), pairs)


def read_polynomials(data):
    """One polynomial, a list of them, or {"polys": [...]}, as a list."""
    if isinstance(data, list) and data and isinstance(data[0], dict) and "terms" in data[0]:
        return [read_polynomial(d) for d in data]
    if isinstance(data, dict) and "polys" in data:
        return [read_polynomial(d) for d in data["polys"]]
    return [read_polynomial(data)]


def read_complex(data):
    """{"n", "facets"} or a bare facet list."""
    from .simplicial import SimplicialComplex

    if not isinstance(data, dict):
        return SimplicialComplex(data)
    n = data.get("n")
    return SimplicialComplex(data.get("facets", ()), n if n is None else _integer(n, "n"))


def read_subspace(data):
    """{"n", "basis"} or a bare list of basis rows."""
    from .qlinalg import RationalSubspace

    if isinstance(data, dict):
        rows, n = _rows(data.get("basis", [])), data.get("n")
    else:
        rows, n = _rows(data), None
    if n is None:
        if not rows:
            raise ValueError("subspace needs 'n' when the basis is empty")
        n = len(rows[0])
    return RationalSubspace.span(_integer(n, "n"), rows)


def read_arrangement(data):
    """{"n", "components": [{"basis"}, ...]}."""
    from .qlinalg import RationalSubspace, SubspaceArrangement

    n = _integer(data["n"], "n")
    comps = [RationalSubspace.span(n, _rows(c["basis"])) for c in data.get("components", [])]
    return SubspaceArrangement(n, comps)


def read_chain(data):
    """{"ranks", "boundaries"}: matrices of one-variable polynomials."""
    from .laurent import EquivariantChainComplex1

    ranks = [_integer(r, "a rank") for r in data["ranks"]]
    mats = [[[read_polynomial(x) for x in row] for row in m] for m in data.get("boundaries", [])]
    return EquivariantChainComplex1(ranks, mats)


def read_point(data):
    """A rational vector, bare or as {"point": [...]}."""
    from .qlinalg import qvector

    return qvector(data["point"] if isinstance(data, dict) else data)


def read_forms(data):
    """A line arrangement: the coefficient triples of its linear forms."""
    from .arrangements import ProjLineArrangement

    return ProjLineArrangement(_rows(data))


def read_algebra(data):
    """{"dims", "mult": [{"deg", "table"}, ...]}, one table per degree 1..k-1."""
    from .aomoto import GradedAlgebraPresentation

    dims = [_integer(c, "a dimension") for c in data["dims"]]
    by_deg = {_integer(e["deg"], "deg"): e["table"] for e in data.get("mult", [])}
    if sorted(by_deg) != list(range(1, len(dims) - 1)):
        raise ValueError("multiplication tables must cover degrees 1..k-1")
    return GradedAlgebraPresentation(dims, [by_deg[i] for i in sorted(by_deg)])


def read_torus(data, n):
    """{"direction", "q"} in ambient dimension n."""
    from .cvmodel import TranslatedTorus
    from .qlinalg import RationalSubspace, qvector

    direction = RationalSubspace.span(n, _rows(data["direction"]))
    return TranslatedTorus(direction, qvector(data["q"]))


def read_model(data):
    """{"n", "components", "isolated"}."""
    from .cvmodel import CVModel

    n = _integer(data["n"], "n")
    comps = [read_torus(c, n) for c in data.get("components", [])]
    return CVModel(n, comps, _rows(data.get("isolated", [])))


def read_classification(data):
    """`cv classify` input, {"degrees": [{"degree", "model", "resonance"}, ...]},
    as two dicts keyed by degree: models and resonance."""
    models, resonance = {}, {}
    for entry in data["degrees"]:
        deg = _integer(entry["degree"], "degree")
        models[deg] = read_model(entry["model"])
        resonance[deg] = read_arrangement(entry["resonance"])
    return models, resonance


def read_witness_input(data):
    """`cv witness` input, {"n", "component", "resonance"}, as a pair."""
    n = _integer(data["n"], "n")
    return read_torus(data["component"], n), read_arrangement(data["resonance"])
