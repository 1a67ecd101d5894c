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
  whose blocks are minimal zero-sum sets.  The cone is found by an exact
  cover search of S by minimal zero-sum subsets, on bitmasks, that carries
  the span of the differences chosen so far and cuts a branch once that
  span contains one already found, so it lists no partition and builds a
  subspace only for the components.  `admissible_partitions` lists the
  partitions themselves, for supports up to `SUPPORT_LIMIT`.

* the classical tangent cone — for a hypersurface, the zero set of the
  lowest-degree homogeneous part of f(z + 1), after clearing monomial units.
  Only the low-degree end of f(z + 1) is expanded.

The two are compared by one exact division of a form by the linear form of
an integer equation: a form vanishes on a subspace when it reduces to 0
modulo the subspace's equations, and the cones are equal when the form is,
up to a constant, a product of powers of the equations of the exponential
cone's components, all of them hyperplanes.  No factoring is needed.

The module also evaluates rank-1 twisted homology for chain complexes over
the one-variable Laurent ring, which is a PID, so determinantal gcds give
honest defining polynomials, and factors one-variable polynomials into
cyclotomic and other irreducible pieces.  Both run in exact Z[t]
arithmetic: Bareiss determinants, primitive remainder sequences, and
division by cyclotomic polynomials.  A chain complex's matrices enter Z[t]
once, each row scaled by a unit, and a locus stays there until it is
returned.  sympy is imported only by `factor_one_variable`, to factor a
non-cyclotomic remainder of degree 2 or more.  One-variable inputs whose
degree span exceeds `DEGREE_LIMIT` are refused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod

from .qlinalg import (
    RationalSubspace,
    SubspaceArrangement,
    _check_size,
    _primitive,
    primitive_integer_vector,
    qscalar,
    qvector,
)

# Largest support whose admissible partitions are listed; their number can
# grow exponentially with it.
SUPPORT_LIMIT = 10
# Largest support of an exponential tangent cone, and most steps its cover
# search may take (measured in `_exp_tangent_cone_single`).
CONE_SUPPORT_LIMIT = 18
CONE_STEP_LIMIT = 50_000
# Largest degree span (top exponent minus bottom exponent) of a one-variable
# polynomial that is factored or enters a chain complex; x^1000 - 1 factors
# in about half a second.
DEGREE_LIMIT = 1000
# Most work the minors of one `cv_rank1_chain` call may take: a k x k minor
# counts its k^2 entries, and each entry its Bareiss elimination computes
# counts 1 plus the coefficient products it makes.  On a 2-vCPU Xeon (Python
# 3.11.7) a unit costs 0.2-0.7 us, so a refusal comes within about 1.5 s.
MINOR_LIMIT = 2_000_000


@dataclass(frozen=True, slots=True)
class LaurentPolynomial:
    """f = sum of c_a * t^a with a in Z^n and c_a a nonzero rational.

    Stored as a dict from exponent tuples to Fraction coefficients; zero
    coefficients are dropped on construction, so `terms` is the support.
    """

    n_vars: int
    terms: dict = ()

    def __post_init__(self):
        _check_size(self.n_vars, "number of variables")
        clean = {}
        terms = self.terms
        items = terms.items() if isinstance(terms, dict) else terms
        for expo, coeff in items:
            expo = tuple(expo)
            if not {int}.issuperset(map(type, expo)):
                raise ValueError(f"exponents must be integers, got {expo}")
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


def _zero_sum_blocks(f: LaurentPolynomial, finest):
    """The zero-sum subsets of the support of f as bitmasks (bit i for the
    i-th support term), listed under their lowest bit; only the minimal
    ones with `finest`.  f must be nonzero with f(1) = 0.

    All 2^s subset sums are computed once, each from the sum without its
    lowest bit.  A submask is numerically smaller, so in increasing order a
    zero-sum mask is minimal exactly when it contains no minimal one found
    before.
    """
    s = len(f.terms)
    coeffs = _primitive(list(f.terms.values()))
    sums = [0] * (1 << s)
    blocks = []
    for mask in range(1, 1 << s):
        low = mask & -mask
        sums[mask] = total = sums[mask ^ low] + coeffs[low.bit_length() - 1]
        if total == 0 and not (finest and any(b & mask == b for b in blocks)):
            blocks.append(mask)
    by_low = {}
    for b in blocks:
        by_low.setdefault(b & -b, []).append(b)
    return by_low


def admissible_partitions(f: LaurentPolynomial, finest=False):
    """The partitions of the support of f into zero-sum blocks.

    The whole-support sum is the sum of the block sums, so the output is
    empty unless f(1) = 0.  With `finest`, only partitions into minimal
    zero-sum blocks (no nonempty proper subset sums to zero) are returned.
    These are the finest admissible partitions: splitting a zero-sum block
    at a zero-sum subset leaves two zero-sum blocks, so every admissible
    partition is refined by one of them.

    The partitions are the exact covers of the support by zero-sum subsets,
    built on bitmasks by always covering the lowest uncovered bit next, so
    no inadmissible partition is visited.  Their number can still grow
    exponentially with the support, which is capped at `SUPPORT_LIMIT`.
    The exponential tangent cone does not list partitions: it runs the
    same cover search, pruned (`exp_tangent_cone`).
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
    by_low = _zero_sum_blocks(f, finest)

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


def _annihilate(eqs, vectors):
    """An integer basis of the members of span(eqs) that vanish on every
    vector in `vectors`: one elimination step per vector on which some
    member of eqs does not vanish."""
    for v in vectors:
        dots = [sum(x * y for x, y in zip(e, v)) for e in eqs]
        k = next((i for i, d in enumerate(dots) if d), None)
        if k is None:
            continue
        pivot, dk = eqs[k], dots[k]
        out = []
        for i, (e, d) in enumerate(zip(eqs, dots)):
            if i == k:
                continue
            if d:
                g = gcd(dk, d)
                e = [dk // g * x - d // g * y for x, y in zip(e, pivot)]
                g = gcd(*e)
                e = [x // g for x in e]
            out.append(e)
        eqs = out
    return eqs


def _exp_tangent_cone_single(f: LaurentPolynomial) -> SubspaceArrangement:
    """The cone of one polynomial: the union of the W_P^⊥ over the finest
    admissible partitions P, where the flat W_P is spanned by the exponent
    differences within the blocks of P.

    This is the exact-cover search of `admissible_partitions`, pruned.
    Every W_P lies in the span D of all exponent differences, so the search
    runs in integer coordinates on D, the pivot coordinates of its echelon
    rows, and only the flats it keeps are lifted back to Q^n.  It carries
    an integer basis of the annihilator of W, the span of the differences
    in the blocks chosen so far.  Covering more only enlarges W, so a
    branch is cut as soon as W is all of D or contains a flat already kept:
    every completion then gives a W_P^⊥ that is D^⊥ or lies inside a known
    component.  A leaf keeps its W and drops the kept flats that contain
    it.  D^⊥ lies in every component, so it is the whole cone only when no
    flat is kept.

    Two caps bound a call.  The support is capped at `CONE_SUPPORT_LIMIT`
    terms for the 2^s subset-sum table, and the search at
    `CONE_STEP_LIMIT` steps: one per node, one per kept flat it is compared
    with, and one per difference vector it adds.  On a 2-vCPU Xeon (Python
    3.11.7) the table takes 0.05-0.15 s at s = 18 and a step 1-10 us, so a
    refusal comes within about 0.7 s.  Products of four binomials
    (s = 15, 16) take about 1,500 steps, and block-built s = 18 inputs in
    3-5 variables 2,500-50,000.
    """
    n = f.n_vars
    if f.is_zero():
        # the zero polynomial vanishes on the whole torus
        return SubspaceArrangement(n, [RationalSubspace.full(n)])
    support = f.support()
    s = len(support)
    if s > CONE_SUPPORT_LIMIT:
        raise ValueError(
            f"support too large: {s} monomials exceeds the "
            f"tangent-cone limit of {CONE_SUPPORT_LIMIT}"
        )
    if f.value_at_one() != 0:
        return SubspaceArrangement(n, [])
    span = RationalSubspace(n, [[x - y for x, y in zip(e, support[0])] for e in support])
    pivots = [next(c for c, x in enumerate(row) if x) for row in span.rows]
    scale = lcm(*(row[c] for row, c in zip(span.rows, pivots)))
    weights = [scale // row[c] for row, c in zip(span.rows, pivots)]
    # a w in D is the sum over the rows of (w_c / row_c) * row, c the row's
    # pivot, so the weighted pivot entries of w are coordinates on D
    points = [[e[c] * m for c, m in zip(pivots, weights)] for e in support]
    choices = {}
    for low, blocks in _zero_sum_blocks(f, finest=True).items():
        for b in blocks:
            first, *rest = (points[i] for i in range(s) if b >> i & 1)
            diffs = [[x - y for x, y in zip(e, first)] for e in rest]
            choices.setdefault(low, []).append((b, diffs))
    r = span.dim
    kept = []  # the annihilator of each kept flat, in the coordinates
    steps = 0

    def search(rest, eqs):
        nonlocal steps
        steps += 1 + len(kept)
        if steps > CONE_STEP_LIMIT:
            raise ValueError(
                f"tangent-cone search too large: more than {CONE_STEP_LIMIT} "
                f"steps on a support of {s} monomials"
            )
        if not eqs or any(
            len(eqs) <= a.dim and all(a._satisfies(e) for e in eqs) for a in kept
        ):
            return
        if not rest:
            ann = RationalSubspace(r, eqs)
            kept[:] = [a for a in kept if not ann.contains_subspace(a)]
            kept.append(ann)
            return
        for b, diffs in choices.get(rest & -rest, ()):
            if b & rest == b:
                steps += len(diffs)
                search(rest ^ b, _annihilate(eqs, diffs))

    search((1 << s) - 1, [[int(i == j) for j in range(r)] for i in range(r)])
    # u . (coordinates of w) = z . w for the z with z_c = m * u at each pivot
    # c of weight m, so W^⊥ is spanned by those z and by D^⊥
    perp = list(span.annihilator().rows)
    comps = []
    for ann in kept:
        lifted = []
        for u in ann.rows:
            z = [0] * n
            for c, m, x in zip(pivots, weights, u):
                z[c] = m * x
            lifted.append(z)
        comps.append(RationalSubspace(n, lifted + perp))
    return SubspaceArrangement(n, comps or [RationalSubspace(n, perp)])


def exp_tangent_cone(polys) -> SubspaceArrangement:
    """Exponential tangent cone of the common zero set of the given
    Laurent polynomials, as a maximal-pruned union of rational subspaces.

    One polynomial: union of the subspaces certified by its finest
    admissible partitions, found by a pruned cover search that never lists
    the partitions (`_exp_tangent_cone_single`).  A coarser partition only
    adds equations, so its subspace lies inside that of a finest partition
    refining it, and the maximal components are the same as over all
    admissible partitions.
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
    first term (in exponent order) is positive; f must be nonzero."""
    ints = primitive_integer_vector(f.terms.values())
    return LaurentPolynomial(f.n_vars, dict(zip(f.terms, ints)))


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
    cleared = [
        (tuple(e[i] - shifts[i] for i in range(n)), c)
        for e, c in zip(f.terms, _primitive(list(f.terms.values())))
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


def _divide(form, eq):
    """Divide a form {exponent tuple: Fraction} by the linear form l of a
    sparse integer equation (see `qlinalg._kernel`), eliminating the
    equation's own variable z_j, its first entry (j, a): (q, r) with
    form = q * l + r and r free of z_j, cleared from the top power of z_j
    down."""
    (j, a), *rest = eq
    rem, quo = dict(form), {}
    for k in range(max((e[j] for e in form), default=0), 0, -1):
        for e in [e for e in rem if e[j] == k]:
            c = rem.pop(e) / a
            e = e[:j] + (k - 1,) + e[j + 1 :]
            quo[e] = c
            for col, b in rest:
                key = e[:col] + (e[col] + 1,) + e[col + 1 :]
                v = rem.get(key, 0) - c * b
                if v:
                    rem[key] = v
                else:
                    rem.pop(key, None)
    return quo, rem


def _vanishes_on(form: LaurentPolynomial, rows):
    """Does the form vanish on the span of the integer rows?

    Each equation of the span eliminates its own variable, which no other
    equation involves, so what is left of the form after dividing by all of
    them is a polynomial in the pivot variables of the rows.  Those are free
    on the span, so the form vanishes there exactly when nothing is left.
    """
    rest = form.terms
    for eq in RationalSubspace(form.n_vars, rows).equations:
        _, rest = _divide(rest, eq)
    return not rest


def compare_tangent_cones(f: LaurentPolynomial) -> dict:
    """Both cones of the hypersurface f = 0, with containment and equality,
    over C and exactly.

    Containment: the tangent-cone form tc1 must vanish on each component of
    the exponential cone (`_vanishes_on`).  Equality: TC1 = {tc1 = 0} is a
    hypersurface, so a union of rational subspaces equals it exactly when
    every component is a hyperplane ker l_i and tc1 = c * prod l_i^m_i
    (Nullstellensatz and Gauss's lemma).  So the cones are equal when the
    exponential cone lies in TC1, every component has codimension 1, and
    dividing tc1 by each component's equation as often as the remainder
    stays 0 leaves a constant.  In Q^1 they are always equal: both cones
    are the origin, the hyperplane that arrangements keep implicit, unless
    f(1) != 0 and both are empty.
    """
    tau1 = exp_tangent_cone([f])
    tc1 = hypersurface_tc1(f)
    contained = all(_vanishes_on(tc1, comp.rows) for comp in tau1.components)
    rest = tc1.terms
    for comp in tau1.components:
        q, r = _divide(rest, comp.equations[0])
        while not r:
            rest = q
            q, r = _divide(rest, comp.equations[0])
    hyperplanes = all(comp.codim() == 1 for comp in tau1.components)
    equal = f.n_vars == 1 or (contained and hyperplanes and not any(map(any, rest)))
    return {
        "tau1": tau1,
        "tc1": tc1,
        "tau1_inside_tc1": contained,
        "equal": equal,
    }


# ---------------------------------------------------------------------------
# exact arithmetic in Z[t]
#
# A polynomial is a list of ints, the coefficient of t^i at index i, with no
# trailing zeros; the zero polynomial is [].


def _zt_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _zt_sub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _zt_trim(out)


def _zt_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zt_divmod(a, b):
    """(q, r) with a = q*b + r and deg r < deg b, over Z.  Every step must
    divide exactly by the leading coefficient of b, which holds when b is
    monic or divides a."""
    r = list(a)
    lead, nb = b[-1], len(b)
    q = [0] * max(len(r) - nb + 1, 0)
    while len(r) >= nb:
        c, m = divmod(r[-1], lead)
        if m:
            raise ArithmeticError("inexact division in Z[t]")
        shift = len(r) - nb
        q[shift] = c
        for i, y in enumerate(b):
            r[shift + i] -= c * y
        _zt_trim(r)
    return q, r


def _zt_exact_div(a, b):
    q, r = _zt_divmod(a, b)
    if r:
        raise ArithmeticError("inexact division in Z[t]")
    return q


def _zt_primitive(a):
    """a divided by its content and by the sign of its leading coefficient;
    [] stays []."""
    if not a:
        return []
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return [x // g for x in a]


def _zt_strip(a):
    """a with every factor t removed."""
    k = 0
    while k < len(a) and not a[k]:
        k += 1
    return a[k:]


def _zt_gcd(a, b):
    """Primitive gcd of a and b (positive leading coefficient), by the
    primitive polynomial remainder sequence; the content is dropped."""
    a, b = _zt_primitive(a), _zt_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = list(a)
        lead, nb = b[-1], len(b)
        while len(r) >= nb:
            c, shift = r[-1], len(r) - nb
            r = [x * lead for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= c * y
            _zt_trim(r)
        a, b = b, _zt_primitive(r)
    return a


def _zt_det(mat, work):
    """Determinant of a square matrix over Z[t] by Bareiss fraction-free
    elimination: every division by the previous pivot is exact.  Each entry
    it computes adds 1 plus its coefficient products to work[0]."""
    m = [list(row) for row in mat]
    n = len(m)
    negate, prev = False, [1]
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    negate = not negate
                    break
            else:
                return []
        pivot, pivot_row = m[k][k], m[k]
        for i in range(k + 1, n):
            row, lead = m[i], m[i][k]
            for j in range(k + 1, n):
                work[0] += 1 + len(row[j]) * len(pivot) + len(lead) * len(pivot_row[j])
                num = _zt_sub(_zt_mul(row[j], pivot), _zt_mul(lead, pivot_row[j]))
                row[j] = _zt_exact_div(num, prev) if num else []
        prev = pivot
    det = m[n - 1][n - 1]
    return [-x for x in det] if negate else det


def _zt_from_poly(poly: LaurentPolynomial):
    """A nonzero one-variable polynomial, shifted by a unit to start at t^0
    and scaled to coprime integers with positive leading coefficient."""
    return _zt_primitive(_zt_rows([[poly]])[0][0])


def _zt_rows(mat):
    """Each row of a one-variable Laurent matrix, multiplied by one unit
    c * t^s that puts all of its entries in Z[t] with coprime coefficients.
    The row's minors change by units only, so no gcd of minors moves."""
    out = []
    for row in mat:
        terms = [(e[0], c) for p in row for e, c in p.terms.items()]
        if not terms:
            out.append([[] for _ in row])
            continue
        low = min(e for e, _ in terms)
        scaled = iter(_primitive([c for _, c in terms]))
        ints = []
        for p in row:
            a = [0] * (max(e[0] for e in p.terms) - low + 1) if p.terms else []
            for e in p.terms:
                a[e[0] - low] = next(scaled)
            ints.append(a)
        out.append(ints)
    return out


def _short_first(mat):
    """A Z[t] matrix with its rows, then its columns, ordered by their longest
    entry, shortest first: its minors change by sign only."""
    rows = sorted(mat, key=lambda row: max(map(len, row), default=0))
    cols = sorted(zip(*rows), key=lambda col: max(map(len, col)))
    return [list(row) for row in zip(*cols)] if cols else rows


def _zt_to_poly(a) -> LaurentPolynomial:
    return LaurentPolynomial(1, {(i,): Fraction(c) for i, c in enumerate(a) if c})


def _totient(k):
    out, m, p = k, k, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _totient_preimages(d):
    """Every k >= 1 with phi(k) = d, in increasing order.

    k is a product of prime powers p^e over distinct primes p with p - 1
    dividing d, and phi(k) is the product of the p^(e-1) * (p - 1).  Each
    partial product is kept with the part of d it leaves to account for.
    """
    partial = [(1, d)]
    for p in (q + 1 for q in range(1, d + 1) if d % q == 0 and _totient(q + 1) == q):
        for k, rest in list(partial):
            if rest % (p - 1) == 0:
                rest, power = rest // (p - 1), p
                partial.append((k * power, rest))
                while rest % p == 0:
                    rest, power = rest // p, power * p
                    partial.append((k * power, rest))
    return sorted(k for k, rest in partial if rest == 1)


# every k <= 300 with Phi_k of degree at most 12: the cyclotomic factors
# that are divided out before anything reaches sympy
_CYCLOTOMIC_INDICES = tuple(k for k in range(1, 301) if _totient(k) <= 12)


def _zt_cyclotomic_index(a):
    """k with a == Phi_k, or None; a must be primitive with a positive
    leading coefficient."""
    if len(a) < 2 or a[-1] != 1 or abs(a[0]) != 1:
        return None
    return next((k for k in _totient_preimages(len(a) - 1) if _cyclotomic(k) == a), None)


@lru_cache(maxsize=128)
def _cyclotomic(k):
    """Phi_k in Z[t], from Phi_k = prod over d | k of (t^d - 1)^mu(k/d).

    For k > 1 the signs cancel and the product equals that of the power
    series (1 - t^d)^mu(k/d), which is computed only up to t^phi(k), the
    degree of Phi_k.  The cache holds every k that `factor_one_variable`
    divides by and a few more.
    """
    if k == 1:
        return [-1, 1]
    deg = _totient(k)
    primes = [p for p in range(2, k + 1) if k % p == 0 and _totient(p) == p - 1]
    a = [1] + [0] * deg
    for r in range(len(primes) + 1):
        for chosen in itertools.combinations(primes, r):
            d = k // prod(chosen)
            if r % 2:  # divide by 1 - t^d
                for i in range(d, deg + 1):
                    a[i] += a[i - d]
            else:  # multiply by 1 - t^d
                for i in range(deg, d - 1, -1):
                    a[i] -= a[i - d]
    return a


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
        implicitly, so this is just the cone of the hypersurface part: all
        of Q^n for the zero polynomial, and trivial for a nonzero constant,
        whose hypersurface is empty."""
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


def link_cv1(delta: LaurentPolynomial) -> LinkCV1:
    return LinkCV1(delta)


def cyclotomic_index(poly: LaurentPolynomial):
    """Recognize a one-variable polynomial as a cyclotomic polynomial.

    Returns the index k with poly == Phi_k (up to a rational scalar and a
    monomial unit), or None.  Only the k with phi(k) equal to the degree are
    tried; a degree span above `DEGREE_LIMIT` is refused.
    """
    if poly.n_vars != 1:
        raise ValueError("cyclotomic recognition needs one variable")
    _check_degree_span(poly)
    return _zt_cyclotomic_index(_zt_from_poly(poly))


def _check_degree_span(poly: LaurentPolynomial):
    """Refuse a one-variable polynomial too long to factor."""
    exps = [e[0] for e in poly.terms]
    span = max(exps) - min(exps) if exps else 0
    if span > DEGREE_LIMIT:
        raise ValueError(
            f"degree span too large: {span} exceeds the limit of {DEGREE_LIMIT}"
        )


def _factor_entry(a, mult, k):
    return {
        "factor": _zt_to_poly(a),
        "multiplicity": mult,
        "cyclotomic_index": k,
        "torsion_points": (
            [] if k is None else [Fraction(j, k) for j in range(k) if gcd(j, k) == 1]
        ),
    }


def factor_one_variable(poly: LaurentPolynomial):
    """Irreducible factorization over Q of a one-variable Laurent
    polynomial (modulo monomial units), with cyclotomic factors named and
    their torsion characters listed as fractions j/k in [0, 1).

    Every Phi_k of degree at most 12 is divided out exactly, as often as it
    divides.  A remainder of degree 1 is irreducible as it stands; only a
    remainder of degree 2 or more is handed to sympy, and each factor it
    returns is checked against every Phi_k of the same degree.  sympy splits
    t^n - 1 and t^n + 1 straight into cyclotomic factors, but would run its
    general factor recombination on what is left of them after the
    division, so such a binomial goes to sympy whole.  A nonzero constant
    has no factors.
    """
    if poly.n_vars != 1:
        raise ValueError("one variable expected")
    if poly.is_zero():
        raise ValueError("the zero polynomial has no factorization")
    _check_degree_span(poly)
    whole = rest = _zt_from_poly(poly)
    out = []
    for k in _CYCLOTOMIC_INDICES:
        phi = _cyclotomic(k)
        mult = 0
        while len(rest) >= len(phi):
            q, r = _zt_divmod(rest, phi)
            if r:
                break
            rest, mult = q, mult + 1
        if mult:
            out.append(_factor_entry(phi, mult, k))
    if len(rest) == 2:
        out.append(_factor_entry(rest, 1, None))
    elif len(rest) > 2:
        import sympy

        if abs(whole[0]) == whole[-1] == 1 and not any(whole[1:-1]):
            out, rest = [], whole
        t = sympy.Symbol("t")
        _, factors = sympy.factor_list(sympy.Poly(rest[::-1], t))
        for fac, mult in factors:
            a = [int(c) for c in reversed(fac.all_coeffs())]
            out.append(_factor_entry(a, int(mult), _zt_cyclotomic_index(a)))
    out.sort(key=lambda d: sorted(d["factor"].terms.items()))
    return out


# ---------------------------------------------------------------------------
# equivariant chain complexes over the one-variable Laurent ring


@dataclass(frozen=True, slots=True)
class EquivariantChainComplex1:
    """A finite free chain complex over Q[t, 1/t].

    boundaries[i] is the matrix of the map from chain degree i+1 down to
    degree i, with LaurentPolynomial entries in one variable; consecutive
    boundaries must compose to zero.  That is checked with the sparse
    Laurent products, which cost nothing for a large exponent: entries are
    only brought into Z[t] by `cv_rank1_chain`, after their degree span
    is checked.
    """

    ranks: tuple
    boundaries: tuple

    def __post_init__(self):
        ranks = tuple(self.ranks)
        if not {int}.issuperset(map(type, ranks)):
            raise ValueError(f"ranks must be integers, got {ranks}")
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
        zero = LaurentPolynomial.zero(1)
        for i in range(len(mats) - 1):
            cols = list(zip(*mats[i + 1]))
            for row in mats[i]:
                for col in cols:
                    if not sum((x * y for x, y in zip(row, col)), zero).is_zero():
                        raise ValueError(
                            f"boundaries {i + 1} and {i + 2} do not compose to zero"
                        )
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


def _minor_gcd(ints, k, work):
    """gcd of all k x k minors of a matrix over Z[t], given as rows of Z[t]
    lists, as a primitive Z[t] list with no factor t.

    k = 0 gives the unit [1]; k larger than either dimension gives the zero
    polynomial [], whose zero set is everything — there are no minors left
    to impose a condition.  The minors are Bareiss determinants, stripped
    of factors t, in lexicographic order of rows and columns (which
    `cv_rank1_chain` puts short first, `_short_first`); the scan stops
    once their gcd is a constant.
    Each minor adds its cost to `work`, a one-item list that the calls of
    one `cv_rank1_chain` share, and a total past `MINOR_LIMIT` raises
    ValueError.
    """
    if k == 0:
        return [1]
    nrows = len(ints)
    ncols = len(ints[0]) if ints else 0
    acc = []
    for rows in itertools.combinations(range(nrows), k):
        for cols in itertools.combinations(range(ncols), k):
            work[0] += k * k
            det = _zt_det([[ints[r][c] for c in cols] for r in rows], work)
            if work[0] > MINOR_LIMIT:
                raise ValueError(
                    f"rank-1 locus too large: its minors need more than "
                    f"{MINOR_LIMIT} steps"
                )
            acc = _zt_gcd(acc, _zt_strip(det))
            if len(acc) == 1:
                return [1]
    return acc


def cv_rank1_chain(chain: EquivariantChainComplex1, i: int, d: int) -> LaurentPolynomial:
    """Defining polynomial of the depth-d degree-i rank-1 jump locus.

    A character rho jumps exactly when
    rank(boundary out of degree i+1 at rho) + rank(boundary out of degree i
    at rho) <= c_i - d.  Over the one-variable ring, `rank <= r` is cut out
    by the gcd of the (r+1)-minors, and the union over the ways to split
    the rank budget is the product of the per-split gcds.  Each boundary is
    scaled once into Z[t] by a unit per row (`_zt_rows`), which moves no
    gcd of minors; the gcds and their product stay in Z[t], primitive with
    no factor t, and become a LaurentPolynomial only at the end.  The zero
    polynomial means the whole torus jumps; a nonzero constant means no
    character does.  Minors past `MINOR_LIMIT` are refused (`_minor_gcd`).
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
    down, up = _short_first(_zt_rows(down)), _short_first(_zt_rows(up))
    result, work = [1], [0]
    for r in range(budget + 1):
        g = _zt_gcd(_minor_gcd(down, r + 1, work), _minor_gcd(up, budget - r + 1, work))
        result = _zt_mul(result, g)
    return _zt_to_poly(result)
