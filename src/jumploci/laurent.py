"""Laurent polynomials over Q and the two tangent cones of their zero sets.

A Laurent polynomial f with finite support S cuts out a hypersurface inside
the algebraic torus.  Two linear approximations of that hypersurface at the
identity live in this module:

* the exponential tangent cone — the directions z such that the whole line
  exp(t z) stays inside the zero set.  It is computed combinatorially from
  the partitions of S into blocks with zero coefficient sum; each such
  partition contributes the rational subspace cut out by the differences of
  exponent vectors within blocks, and the cone is the union of the maximal
  contributions.  Only the finest such partitions matter: a coarser
  partition imposes more equations, so its subspace lies inside that of any
  partition refining it, and every admissible partition is refined by one
  whose blocks are minimal zero-sum sets.  The partitions are enumerated as
  exact covers of S by zero-sum subsets, on bitmasks, so inadmissible
  partitions are never visited.

* the classical tangent cone — for a hypersurface, the zero set of the
  lowest-degree homogeneous part of f(z + 1), after clearing monomial units.
  Only the low-degree end of f(z + 1) is expanded.

The module also evaluates rank-1 twisted homology for chain complexes over
the one-variable Laurent ring, which is a PID, so determinantal gcds give
honest defining polynomials.  One-variable inputs whose degree span exceeds
`DEGREE_LIMIT` are refused before they reach sympy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm

from .qlinalg import (
    RationalSubspace,
    SubspaceArrangement,
    qscalar,
    qvector,
)

SUPPORT_LIMIT = 10
# Largest degree span (top exponent minus bottom exponent) of a one-variable
# polynomial handed to sympy; x^1000 - 1 factors in about half a second.
DEGREE_LIMIT = 1000


@dataclass(frozen=True, slots=True)
class LaurentPolynomial:
    """f = sum of c_a * t^a with a in Z^n and c_a a nonzero rational.

    Stored as a dict from exponent tuples to Fraction coefficients; zero
    coefficients are dropped on construction, so `terms` is the support.
    """

    n_vars: int
    terms: dict = ()

    def __post_init__(self):
        if self.n_vars < 0:
            raise ValueError("number of variables must be >= 0")
        clean = {}
        terms = self.terms
        items = terms.items() if isinstance(terms, dict) else terms
        for expo, coeff in items:
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.n_vars:
                raise ValueError(
                    f"exponent vector {expo} has length {len(expo)}, expected {self.n_vars}"
                )
            c = qscalar(coeff)
            if c != 0:
                c = clean.get(expo, Fraction(0)) + c
                if c:
                    clean[expo] = c
                elif expo in clean:
                    del clean[expo]
        object.__setattr__(self, "terms", dict(sorted(clean.items())))

    def __hash__(self):
        # `terms` is a dict, so the generated hash would fail
        return hash((self.n_vars, tuple(self.terms.items())))

    # -- basics ------------------------------------------------------------

    @classmethod
    def zero(cls, n_vars):
        return cls(n_vars, ())

    @classmethod
    def constant(cls, n_vars, c):
        return cls(n_vars, {(0,) * n_vars: qscalar(c)})

    @classmethod
    def monomial(cls, n_vars, expo, c=1):
        return cls(n_vars, {tuple(expo): qscalar(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def support(self):
        return tuple(self.terms)

    def value_at_one(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def evaluate(self, point):
        """Evaluate at a tuple of rationals; nonzero entries required
        wherever a negative exponent appears."""
        point = qvector(point)
        if len(point) != self.n_vars:
            raise ValueError("point length mismatch")
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, expo):
                if e == 0:
                    continue
                if x == 0 and e < 0:
                    raise ZeroDivisionError("negative exponent at zero coordinate")
                v *= x ** e
            total += v
        return total

    def __add__(self, other):
        other = self._coerce(other)
        merged = dict(self.terms)
        for expo, coeff in other.terms.items():
            merged[expo] = merged.get(expo, Fraction(0)) + coeff
        return LaurentPolynomial(self.n_vars, merged)

    def __neg__(self):
        return LaurentPolynomial(
            self.n_vars, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return LaurentPolynomial(self.n_vars, out)

    def _coerce(self, other):
        if isinstance(other, LaurentPolynomial):
            if other.n_vars != self.n_vars:
                raise ValueError("variable count mismatch")
            return other
        return LaurentPolynomial.constant(self.n_vars, other)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return [
            {"exponents": list(e), "coeff": str(c)}
            for e, c in self.terms.items()
        ]

    @classmethod
    def from_json(cls, data, n_vars=None):
        if n_vars is None:
            if not data:
                raise ValueError("cannot infer variable count from an empty term list")
            n_vars = len(data[0]["exponents"])
        return cls(n_vars, [(d["exponents"], d["coeff"]) for d in data])


# ---------------------------------------------------------------------------
# admissible partitions and the exponential tangent cone


@dataclass(frozen=True, slots=True)
class AdmissiblePartition:
    """A partition of the support into blocks, each with zero coefficient sum.

    Such a partition certifies a subspace of the exponential tangent cone:
    a direction z lies in the certified subspace exactly when the monomial
    exponents within every block pair off to equal values against z, which
    makes the block sums cancel along the whole one-parameter subgroup.
    """

    n_vars: int
    blocks: tuple

    def __post_init__(self):
        blk = tuple(
            tuple(sorted(tuple(int(x) for x in a) for a in b)) for b in self.blocks
        )
        object.__setattr__(self, "blocks", tuple(sorted(blk)))

    def direction_subspace(self) -> RationalSubspace:
        """Kernel of {(a - b) . z = 0 : a, b in a common block}."""
        eqs = []
        for block in self.blocks:
            anchor = block[0]
            for other in block[1:]:
                eqs.append(tuple(x - y for x, y in zip(other, anchor)))
        return RationalSubspace.from_equations(self.n_vars, eqs)


def admissible_partitions(f: LaurentPolynomial, finest=False):
    """The partitions of the support of f into zero-sum blocks.

    The whole-support sum is the sum of the block sums, so the output is
    empty unless f(1) = 0.  With `finest`, only partitions into minimal
    zero-sum blocks (no nonempty proper subset sums to zero) are returned.
    These are the finest admissible partitions: splitting a zero-sum block
    at a zero-sum subset leaves two zero-sum blocks, so every admissible
    partition is refined by one of them.  That is all the exponential
    tangent cone needs.

    The support is indexed by bits.  All 2^s subset sums are computed once,
    each from the sum without its lowest bit; the partitions are the exact
    covers of the full mask by zero-sum masks, built by always covering the
    lowest uncovered bit next, so no inadmissible partition is visited.
    Support size is capped, because the number of admissible partitions can
    still grow exponentially with it.
    """
    if f.is_zero():
        raise ValueError("admissible partitions are undefined for the zero polynomial")
    support = f.support()
    s = len(support)
    if s > SUPPORT_LIMIT:
        raise ValueError(
            f"support too large: {s} monomials exceeds the "
            f"enumeration limit of {SUPPORT_LIMIT}"
        )
    if f.value_at_one() != 0:
        return []
    scale = lcm(*(c.denominator for c in f.terms.values()))
    coeffs = [int(c * scale) for c in f.terms.values()]
    sums = [0] * (1 << s)
    for mask in range(1, 1 << s):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + coeffs[low.bit_length() - 1]
    # A submask is numerically smaller, so in increasing order a zero-sum
    # mask is minimal exactly when it contains no minimal one found before.
    blocks = []
    for mask in range(1, 1 << s):
        if sums[mask] == 0 and not (
            finest and any(b & mask == b for b in blocks)
        ):
            blocks.append(mask)
    by_low = {}
    for b in blocks:
        by_low.setdefault(b & -b, []).append(b)

    def covers(rest):
        if not rest:
            yield ()
            return
        for b in by_low.get(rest & -rest, ()):
            if b & rest == b:
                for tail in covers(rest ^ b):
                    yield (b,) + tail

    out = [
        AdmissiblePartition(
            f.n_vars,
            [[support[i] for i in range(s) if b >> i & 1] for b in cover],
        )
        for cover in covers((1 << s) - 1)
    ]
    out.sort(key=lambda p: p.blocks)
    return out


def _exp_tangent_cone_single(f: LaurentPolynomial) -> SubspaceArrangement:
    if f.is_zero():
        # the zero polynomial vanishes on the whole torus
        return SubspaceArrangement(f.n_vars, [RationalSubspace.full(f.n_vars)])
    return SubspaceArrangement(
        f.n_vars,
        [p.direction_subspace() for p in admissible_partitions(f, finest=True)],
    )


def exp_tangent_cone(polys) -> SubspaceArrangement:
    """Exponential tangent cone of the common zero set of the given
    Laurent polynomials, as a maximal-pruned union of rational subspaces.

    One polynomial: union of the subspaces certified by its finest
    admissible partitions.  A coarser partition only adds equations, so its
    subspace lies inside that of a finest partition refining it, and the
    maximal components are the same as over all admissible partitions.
    Several: the cone of an intersection is the intersection of the cones,
    so the per-polynomial arrangements are intersected pairwise.  The list
    must be nonempty — the ambient dimension is read off the entries.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    n = polys[0].n_vars
    for f in polys:
        if f.n_vars != n:
            raise ValueError("variable count mismatch across polynomials")
    arr = _exp_tangent_cone_single(polys[0])
    for f in polys[1:]:
        arr = arr.intersect(_exp_tangent_cone_single(f))
    return arr


# ---------------------------------------------------------------------------
# the classical tangent cone of a hypersurface


def _normalize_homogeneous(f: LaurentPolynomial) -> LaurentPolynomial:
    """Scale by a rational so coefficients are coprime integers and the
    first term (in exponent order) is positive."""
    if f.is_zero():
        return f
    coeffs = list(f.terms.values())
    denom_lcm = 1
    for c in coeffs:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [c * denom_lcm for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, int(c))
    scale = Fraction(denom_lcm, g)
    first = next(iter(f.terms.values()))
    if first * scale < 0:
        scale = -scale
    return LaurentPolynomial(
        f.n_vars, {e: c * scale for e, c in f.terms.items()}
    )


def hypersurface_tc1(f: LaurentPolynomial) -> LaurentPolynomial:
    """Tangent cone at the identity of the hypersurface f = 0.

    The polynomial is first multiplied by a monomial (a unit on the torus)
    to clear negative exponents, then shifted by 1 in every variable; the
    lowest-degree homogeneous part of the result generates the initial
    ideal, because the ideal is principal and initial forms of a domain
    multiply.  A nonzero constant output means f(1) != 0, i.e. the
    hypersurface misses the identity and the cone is empty.

    The output is normalized, so f is first scaled to integer coefficients,
    and f(z + 1) is expanded only up to a degree cap, doubled until a
    nonzero part appears below it.
    """
    if f.is_zero():
        raise ValueError("tangent cone of the zero polynomial is undefined")
    n = f.n_vars
    shifts = [min(e[i] for e in f.terms) for i in range(n)]
    scale = lcm(*(c.denominator for c in f.terms.values()))
    cleared = [
        (tuple(e[i] - shifts[i] for i in range(n)), int(c * scale))
        for e, c in f.terms.items()
    ]
    cap = 1
    while True:
        low = _shifted_low_part(cleared, n, cap)
        if low:
            break
        cap *= 2
    return _normalize_homogeneous(LaurentPolynomial(n, low))


def _shifted_low_part(cleared, n, cap):
    """Lowest-degree part of sum c * (z + 1)^a over the (a, c) pairs, if it
    has degree at most cap; else {}.  Only terms of degree <= cap are built."""
    expanded = {}
    for expo, coeff in cleared:
        partials = {(0,) * n: coeff}
        for i, k in enumerate(expo):
            if k == 0:
                continue
            nxt = {}
            for base, c in partials.items():
                room = cap - sum(base)
                for j in range(min(k, room) + 1):
                    key = base[:i] + (base[i] + j,) + base[i + 1 :]
                    nxt[key] = nxt.get(key, 0) + c * comb(k, j)
            partials = nxt
        for key, c in partials.items():
            expanded[key] = expanded.get(key, 0) + c
    nonzero = [(e, c) for e, c in expanded.items() if c]
    if not nonzero:
        return {}
    low = min(sum(e) for e, _ in nonzero)
    return {e: c for e, c in nonzero if sum(e) == low}


def _substitute_linear(form: LaurentPolynomial, vectors):
    """form(z) with z = sum_j s_j * vectors[j], expanded in the s variables."""
    m = len(vectors)
    acc = LaurentPolynomial.zero(m)
    lin = [
        LaurentPolynomial(
            m,
            {
                tuple(1 if j == t else 0 for t in range(m)): qscalar(v[i])
                for j, v in enumerate(vectors)
            },
        )
        for i in range(form.n_vars)
    ]
    for expo, coeff in form.terms.items():
        term = LaurentPolynomial.constant(m, coeff)
        for i, e in enumerate(expo):
            for _ in range(e):
                term = term * lin[i]
        acc = acc + term
    return acc


def _linear_factor_kernels(tc: LaurentPolynomial):
    """If the tangent-cone form splits into rational linear factors, return
    the list of their kernels (hyperplanes); otherwise None.

    Factoring is delegated to sympy, imported lazily so that plain cone
    computations never pay the import cost.  A constant has no factors and
    a linear form is its own factorization; neither reaches sympy.
    """
    n = tc.n_vars
    if tc.is_constant():
        return []
    if all(sum(e) == 1 for e in tc.terms):
        row = [Fraction(0)] * n
        for expo, coeff in tc.terms.items():
            row[expo.index(1)] = coeff
        return [RationalSubspace.from_equations(n, [row])]

    import sympy

    syms = sympy.symbols(f"z1:{n + 1}") if n else ()
    expr = sympy.Integer(0)
    for expo, coeff in tc.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(syms, expo):
            term *= s ** e
        expr += term
    _, factors = sympy.factor_list(sympy.expand(expr))
    kernels = []
    for fac, _mult in factors:
        poly = sympy.Poly(fac, *syms)
        if poly.total_degree() != 1:
            return None
        row = [Fraction(str(poly.coeff_monomial(s) or 0)) for s in syms]
        kernels.append(RationalSubspace.from_equations(n, [row]))
    return kernels


def compare_tangent_cones(f: LaurentPolynomial) -> dict:
    """Both cones of the hypersurface f = 0, with containment and equality.

    Containment is checked exactly: each component of the exponential cone
    is parametrized by symbolic coordinates and substituted into the
    tangent-cone form, which must vanish identically.  Equality is decided
    when the form factors into rational linear pieces (then both sides are
    subspace unions and compare canonically); otherwise `equal` is None,
    meaning undetermined at this level of machinery.
    """
    tau1 = exp_tangent_cone([f])
    tc1 = hypersurface_tc1(f)

    if tc1.is_constant() and not tc1.is_zero():
        # f(1) != 0: both cones are empty
        return {
            "tau1": tau1,
            "tc1": tc1,
            "tau1_inside_tc1": True,
            "equal": tau1.is_trivial(),
        }

    contained = True
    for comp in tau1.components:
        sub = _substitute_linear(tc1, comp.basis)
        if not sub.is_zero():
            contained = False
            break

    kernels = _linear_factor_kernels(tc1)
    if kernels is None:
        equal = None
    else:
        equal = SubspaceArrangement(f.n_vars, kernels) == tau1
    return {
        "tau1": tau1,
        "tc1": tc1,
        "tau1_inside_tc1": contained,
        "equal": equal,
    }


# ---------------------------------------------------------------------------
# rank-1 character varieties of link complements


@dataclass(frozen=True, slots=True)
class LinkCV1:
    """Degree-one jump locus of a link complement, presented by the
    multivariable Alexander polynomial: the hypersurface it cuts out,
    together with the identity character, which always belongs.
    """

    delta: LaurentPolynomial
    n_vars: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_vars", self.delta.n_vars)

    def tau1(self) -> SubspaceArrangement:
        """Exponential tangent cone of the whole locus.  The identity
        contributes the origin, which every arrangement here carries
        implicitly, so this is just the cone of the hypersurface part."""
        if self.delta.is_zero():
            # the locus is the whole torus
            return SubspaceArrangement(
                self.n_vars, [RationalSubspace.full(self.n_vars)]
            )
        if self.delta.is_constant():
            # the hypersurface is empty; only the identity remains
            return SubspaceArrangement(self.n_vars, ())
        return exp_tangent_cone([self.delta])

    def hypersurface_contains_identity(self) -> bool:
        return (not self.delta.is_constant()) and self.delta.value_at_one() == 0

    def root_factors(self):
        """One-variable case: factor the polynomial over Q and name the
        cyclotomic factors.  Returns a list of {factor, multiplicity,
        cyclotomic_index (or None), torsion_points}."""
        if self.n_vars != 1:
            raise ValueError("root factorization only applies to one variable")
        if self.delta.is_zero():
            raise ValueError("zero polynomial has the whole torus as root set")
        return factor_one_variable(self.delta)

    def torsion_model(self):
        """One-variable case: the locus as isolated torsion characters,
        for the translated-torus machinery.  Characters coming from
        non-cyclotomic factors are not representable exactly and are
        reported alongside, not silently dropped."""
        from .cvmodel import CVModel

        factors = self.root_factors()
        points = {Fraction(0)}
        nontorsion = []
        for fac in factors:
            k = fac["cyclotomic_index"]
            if k is None:
                nontorsion.append(fac["factor"])
            else:
                points.update(fac["torsion_points"])
        model = CVModel(
            1, components=(), isolated_points=[(p,) for p in sorted(points)]
        )
        return {"model": model, "nontorsion_factors": nontorsion}

    def to_json(self):
        return {
            "n": self.n_vars,
            "delta": self.delta.to_json(),
            "tau1": arrangement_to_json(self.tau1()),
        }


def link_cv1(delta: LaurentPolynomial) -> LinkCV1:
    return LinkCV1(delta)


def cyclotomic_index(poly: LaurentPolynomial):
    """Recognize a one-variable polynomial as a cyclotomic polynomial.

    Returns the index k with poly == Phi_k (up to a rational scalar and a
    monomial unit), or None.  Recognition runs up to degree 12, which is
    plenty for the torsion orders that show up at this scale.
    """
    import sympy

    if poly.n_vars != 1:
        raise ValueError("cyclotomic recognition needs one variable")
    norm = _one_var_int_poly(poly)
    deg = max(e[0] for e in norm.terms)
    if deg == 0 or deg > 12:
        return None
    t = sympy.Symbol("t")
    target = sum(
        sympy.Rational(c.numerator, c.denominator) * t ** e[0]
        for e, c in norm.terms.items()
    )
    for k in range(1, 301):
        if sympy.totient(k) != deg:
            continue
        if sympy.expand(sympy.cyclotomic_poly(k, t) - target) == 0:
            return k
    return None


def _check_degree_span(poly: LaurentPolynomial):
    """Refuse a one-variable polynomial too long for sympy to factor."""
    exps = [e[0] for e in poly.terms]
    span = max(exps) - min(exps) if exps else 0
    if span > DEGREE_LIMIT:
        raise ValueError(
            f"degree span too large: {span} exceeds the limit of {DEGREE_LIMIT}"
        )


def _one_var_int_poly(poly: LaurentPolynomial) -> LaurentPolynomial:
    """Shift by a unit so exponents start at 0, then make the coefficients
    coprime integers with positive leading coefficient."""
    shift = min(e[0] for e in poly.terms)
    moved = LaurentPolynomial(
        1, {(e[0] - shift,): c for e, c in poly.terms.items()}
    )
    return _normalize_homogeneous_any(moved, sign_from=max(moved.terms))


def _normalize_homogeneous_any(f, sign_from):
    coeffs = list(f.terms.values())
    denom_lcm = 1
    for c in coeffs:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    g = 0
    for c in coeffs:
        g = gcd(g, int(c * denom_lcm))
    scale = Fraction(denom_lcm, g)
    if f.terms[sign_from] * scale < 0:
        scale = -scale
    return LaurentPolynomial(f.n_vars, {e: c * scale for e, c in f.terms.items()})


def factor_one_variable(poly: LaurentPolynomial):
    """Irreducible factorization over Q of a one-variable Laurent
    polynomial (modulo monomial units), with cyclotomic factors named and
    their torsion characters listed as fractions j/k in [0, 1)."""
    if poly.n_vars != 1:
        raise ValueError("one variable expected")
    if poly.is_zero():
        raise ValueError("the zero polynomial has no factorization")
    if poly.is_constant():
        return []
    _check_degree_span(poly)
    import sympy

    norm = _one_var_int_poly(poly)
    t = sympy.Symbol("t")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * t ** e[0]
        for e, c in norm.terms.items()
    )
    _, factors = sympy.factor_list(sympy.expand(expr))
    out = []
    for fac, mult in factors:
        fpoly = sympy.Poly(fac, t)
        coeffs = {
            (int(m[0]),): Fraction(str(c))
            for m, c in zip(fpoly.monoms(), fpoly.coeffs())
        }
        lp = LaurentPolynomial(1, coeffs)
        if lp.is_constant():
            continue
        k = cyclotomic_index(lp)
        torsion = []
        if k is not None:
            torsion = [
                Fraction(j, k) for j in range(k) if gcd(j, k) == 1
            ]
        out.append(
            {
                "factor": lp,
                "multiplicity": int(mult),
                "cyclotomic_index": k,
                "torsion_points": torsion,
            }
        )
    out.sort(key=lambda d: sorted(d["factor"].terms.items()))
    return out


# ---------------------------------------------------------------------------
# equivariant chain complexes over the one-variable Laurent ring


@dataclass(frozen=True, slots=True)
class EquivariantChainComplex1:
    """A finite free chain complex over Q[t, 1/t].

    boundaries[i] is the matrix of the map from chain degree i+1 down to
    degree i, with LaurentPolynomial entries in one variable; consecutive
    boundaries must compose to zero.
    """

    ranks: tuple
    boundaries: tuple

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.ranks)
        if any(r < 0 for r in ranks):
            raise ValueError("ranks must be nonnegative")
        mats = []
        for i, mat in enumerate(self.boundaries):
            rows = tuple(tuple(_as_poly1(x) for x in row) for row in mat)
            target, source = ranks[i], ranks[i + 1]
            if len(rows) != target or any(len(r) != source for r in rows):
                raise ValueError(
                    f"boundary {i + 1} must be {target} x {source}"
                )
            mats.append(rows)
        if len(mats) != max(len(ranks) - 1, 0):
            raise ValueError("need one boundary matrix per consecutive pair of ranks")
        for i in range(len(mats) - 1):
            prod = _mat_mul(mats[i], mats[i + 1])
            if any(not x.is_zero() for row in prod for x in row):
                raise ValueError(f"boundaries {i + 1} and {i + 2} do not compose to zero")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "boundaries", tuple(mats))

    def top(self):
        return len(self.ranks) - 1

    def boundary(self, i):
        """Matrix of the map out of chain degree i (into degree i-1);
        the zero-shaped matrix off the ends."""
        if 1 <= i <= self.top():
            return self.boundaries[i - 1]
        return ()


def _as_poly1(x):
    if isinstance(x, LaurentPolynomial):
        if x.n_vars != 1:
            raise ValueError("one-variable entries required")
        return x
    return LaurentPolynomial.constant(1, x)


def _mat_mul(a, b):
    if not a or not b:
        return ()
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = LaurentPolynomial.zero(1)
            for k, x in enumerate(row):
                acc = acc + x * b[k][j]
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def _minor_gcd(mat, k):
    """gcd of all k x k minors, as a normalized integer polynomial.

    k = 0 gives the unit 1; k larger than either dimension gives the zero
    polynomial, whose zero set is everything — there are no minors left to
    impose a condition.
    """
    if k == 0:
        return LaurentPolynomial.constant(1, 1)
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    if k > nrows or k > ncols:
        return LaurentPolynomial.zero(1)
    import sympy

    t = sympy.Symbol("t")

    def entry_expr(p):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * t ** e[0]
            for e, c in p.terms.items()
        )

    acc = sympy.Integer(0)
    for rows in itertools.combinations(range(nrows), k):
        for cols in itertools.combinations(range(ncols), k):
            m = sympy.Matrix(
                [[entry_expr(mat[r][c]) for c in cols] for r in rows]
            )
            acc = sympy.gcd(acc, sympy.expand(m.det()))
            if acc == 1:
                return LaurentPolynomial.constant(1, 1)
    return _sympy_to_poly1(acc)


def _sympy_to_poly1(expr):
    import sympy

    t = sympy.Symbol("t")
    if expr == 0:
        return LaurentPolynomial.zero(1)
    poly = sympy.Poly(sympy.expand(expr), t)
    coeffs = {
        (int(m[0]),): Fraction(str(c))
        for m, c in zip(poly.monoms(), poly.coeffs())
    }
    return _one_var_int_poly(LaurentPolynomial(1, coeffs))


def cv_rank1_chain(chain: EquivariantChainComplex1, i: int, d: int) -> LaurentPolynomial:
    """Defining polynomial of the depth-d degree-i rank-1 jump locus.

    A character rho jumps exactly when
    rank(boundary out of degree i+1 at rho) + rank(boundary out of degree i
    at rho) <= c_i - d.  Over the one-variable ring, `rank <= r` is cut out
    by the gcd of the (r+1)-minors, and the union over the ways to split
    the rank budget is the product of the per-split gcds.  The zero
    polynomial means the whole torus jumps; a nonzero constant means no
    character does.
    """
    if not (0 <= i <= chain.top()):
        raise ValueError(f"degree {i} out of range 0..{chain.top()}")
    if d < 1:
        raise ValueError("depth must be >= 1")
    budget = chain.ranks[i] - d
    if budget < 0:
        return LaurentPolynomial.constant(1, 1)
    down = chain.boundary(i)        # out of degree i
    up = chain.boundary(i + 1)      # out of degree i + 1
    for entry in itertools.chain(*down, *up):
        _check_degree_span(entry)
    result = LaurentPolynomial.constant(1, 1)
    for r in range(budget + 1):
        s = budget - r
        g = _poly1_gcd(_minor_gcd(down, r + 1), _minor_gcd(up, s + 1))
        result = result * g
    if result.is_zero():
        return result
    return _one_var_int_poly(result)


def _poly1_gcd(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    import sympy

    t = sympy.Symbol("t")

    def to_expr(p):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * t ** e[0]
            for e, c in p.terms.items()
        )

    return _sympy_to_poly1(sympy.gcd(to_expr(a), to_expr(b)))


# ---------------------------------------------------------------------------
# serialization helpers shared with the command line


def subspace_to_json(s: RationalSubspace):
    return {"dim": s.dim, "basis": [[str(x) for x in row] for row in s.basis]}


def arrangement_to_json(arr: SubspaceArrangement):
    return {
        "n": arr.n,
        "components": [subspace_to_json(c) for c in arr.components],
        "trivial": arr.is_trivial(),
    }
