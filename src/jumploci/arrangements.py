"""Degree-1 resonance of complex line arrangements, computed combinatorially.

An arrangement is given by rational linear forms in three variables
(lines in the projective plane).  Its degree-1 resonance variety is a
finite union of linear subspaces of Q^n, n the number of lines: one
"local" component for every intersection point lying on at least three
lines, plus "braid" components attached to six-line sub-arrangements
whose induced intersection pattern is four triple points covering each
line twice.

Every component this module reports is certified exactly before being
returned: its basis vectors multiply pairwise to 0 in the degree-2
Orlik-Solomon algebra (aomoto.isotropy_obstruction).  Such an isotropic
subspace of dimension >= 2 lies in the resonance variety, and every
component of that variety is isotropic (Libgober and Yuzvinsky,
"Cohomology of the Orlik-Solomon algebras and local systems", Compositio
Math. 2000), so the certificate refuses no true component.  A failed
certificate raises OracleError rather than silently dropping or keeping
the candidate.  The certificate proves containment, not maximality;
maximality rests on the theory behind the local and braid patterns and
on the check that the components meet pairwise only in 0.  The check
that the rank oracle sees no jump off the union is sampled at random
points, not a proof.

Each arrangement computes its incidence data (multiple_points), its
degree-2 Orlik-Solomon algebra (os_algebra_deg2) and its braid
components (braid_subarrangements) once, on first use, and keeps them.
The braid scan is refused above LINE_LIMIT lines.

Components beyond the local and braid patterns can exist for
arrangements rich enough in triple points; see r1_completeness_note,
which the certificate leaves unchanged.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .aomoto import aomoto_betti, isotropy_obstruction, quotient_exterior_algebra
from .qlinalg import (
    RationalSubspace,
    SubspaceArrangement,
    _primitive,
    intersection_dim,
    primitive_integer_vector,
    qvector,
)

Q = Fraction

# Most lines the braid scan accepts.  Its cost grows like C(n, 6) times the
# number of intersection points: 43-143 s at 32 lines on a 2-vCPU VM.
LINE_LIMIT = 32


class OracleError(Exception):
    """A component failed its certificate, or the rank oracle saw a jump off the union.

    The certificate is exact: a component is refused when two of its basis
    vectors multiply to a nonzero class in A^2, and the message names that
    product.  Isotropy proves a component lies in the resonance variety
    (Libgober-Yuzvinsky), not that it is maximal.  The check off the union
    is sampled at random points, not a proof, and r1_completeness_note is
    unchanged by either check.
    """


# ---------------------------------------------------------------------------
# arrangement and incidence data
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ProjLineArrangement:
    """Lines in P^2, each given by a rational linear form (a, b, c).

    Forms must be nonzero and pairwise non-proportional.  Lines are
    numbered 1..n in input order everywhere in this module.  The
    incidence data, the algebra and the braid components are filled in on
    first use by multiple_points, os_algebra_deg2 and
    braid_subarrangements, then kept.
    """

    forms: tuple
    _points: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _algebra: object = field(default=None, init=False, compare=False, repr=False)
    _braids: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        cleaned = []
        for f in self.forms:
            f = qvector(f)
            if len(f) != 3:
                raise ValueError("each form needs exactly 3 coefficients")
            if not any(f):
                raise ValueError("zero form is not a line")
            cleaned.append(f)
        for i in range(len(cleaned)):
            for j in range(i + 1, len(cleaned)):
                if _cross(cleaned[i], cleaned[j]) == (0, 0, 0):
                    raise ValueError(f"forms {i + 1} and {j + 1} are proportional")
        object.__setattr__(self, "forms", tuple(cleaned))

    @property
    def n(self):
        return len(self.forms)


@dataclass(frozen=True, slots=True)
class MultiplePoint:
    """An intersection point together with the (1-based) lines through it."""

    point: tuple
    lines: tuple

    def __post_init__(self):
        lines = tuple(sorted(self.lines))
        if len(lines) < 2:
            raise ValueError("a multiple point lies on at least two lines")
        object.__setattr__(self, "point", qvector(self.point))
        object.__setattr__(self, "lines", lines)

    @property
    def multiplicity(self):
        return len(self.lines)


def _cross(f, g):
    return (
        f[1] * g[2] - f[2] * g[1],
        f[2] * g[0] - f[0] * g[2],
        f[0] * g[1] - f[1] * g[0],
    )


def _dot3(f, p):
    return f[0] * p[0] + f[1] * p[1] + f[2] * p[2]


def multiple_points(arr: ProjLineArrangement):
    """All intersection points, each with the full set of lines through it.

    Pairwise cross products give candidate points; projective
    normalization (primitive integers, first nonzero entry positive)
    makes equality exact, and the line set of each point is recomputed
    by substitution so it is complete, whatever pair produced the point.
    Both run on the forms scaled once to primitive integers, which
    changes neither a normalized point nor an incidence.  Computed on the
    first call and kept on `arr`.
    """
    if arr._points is None:
        forms = [_primitive(f) for f in arr.forms]
        seen = {}
        for i in range(arr.n):
            for j in range(i + 1, arr.n):
                p = primitive_integer_vector(_cross(forms[i], forms[j]))
                if p not in seen:
                    lines = [k + 1 for k, f in enumerate(forms) if not _dot3(f, p)]
                    seen[p] = MultiplePoint(p, lines)
        points = sorted(seen.values(), key=lambda m: (-m.multiplicity, m.lines))
        object.__setattr__(arr, "_points", tuple(points))
    return arr._points


# ---------------------------------------------------------------------------
# resonance components
# ---------------------------------------------------------------------------


def local_components(arr: ProjLineArrangement) -> SubspaceArrangement:
    """One subspace per point on >= 3 lines.

    For a point on the line set J, the component is the vectors supported
    on J with coordinate sum 0, spanned by e_j - e_{min J} for j in J; its
    dimension is |J| - 1.
    """
    return SubspaceArrangement(arr.n, _local_subspaces(arr))


def _local_subspaces(arr):
    n = arr.n
    return [
        RationalSubspace(n, [_signed_row(n, (j,), p.lines[:1]) for j in p.lines[1:]])
        for p in multiple_points(arr)
        if p.multiplicity >= 3
    ]


def _signed_row(n, plus, minus):
    """1 on the lines `plus`, -1 on the lines `minus` and 0 elsewhere."""
    return [1 if k in plus else -1 if k in minus else 0 for k in range(1, n + 1)]


@dataclass(frozen=True, slots=True)
class BraidComponent:
    """A six-line sub-arrangement with the four-triple pattern and its subspace.

    ``lines`` is the sorted 6-tuple of (1-based) line indices, ``pairs``
    the three pairs of lines sharing no triple point, and ``subspace``
    the 2-dimensional resonance component they span.
    """

    lines: tuple
    pairs: tuple
    subspace: RationalSubspace

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(sorted(self.lines)))
        object.__setattr__(
            self, "pairs", tuple(sorted(tuple(sorted(p)) for p in self.pairs))
        )


def _braid_pattern(points, subset):
    """Pairs of the matching when `subset` carries the braid pattern, else None.

    The pattern: the induced intersection points of the six chosen lines
    include exactly four triples, and each chosen line lies on exactly
    two of them.  (A point of higher induced multiplicity is then
    impossible by pair counting.)  Two lines are matched when they share
    no induced triple; the counts force this to be a perfect matching
    into three pairs.
    """
    chosen = set(subset)
    triples = []
    for mp in points:
        induced = chosen.intersection(mp.lines)
        if len(induced) == 3:
            triples.append(induced)
        elif len(induced) > 3:
            return None
    if len(triples) != 4:
        return None
    if any(sum(line in t for t in triples) != 2 for line in subset):
        return None
    # the two triples on a line meet only in it, so they miss exactly one line
    pairs = []
    for line in subset:
        (mate,) = chosen.difference(*(t for t in triples if line in t))
        if line < mate:
            pairs.append((line, mate))
    return tuple(sorted(pairs))


def _check_line_limit(arr):
    if arr.n > LINE_LIMIT:
        raise ValueError(
            f"too many lines: {arr.n} exceeds the braid scan limit of {LINE_LIMIT}"
        )


def braid_subarrangements(arr: ProjLineArrangement):
    """All certified braid components, in index-tuple order.

    Scans every 6-subset of lines for the four-triple pattern.  With
    pairs p1, p2, p3 and u_p the indicator vector of pair p, the
    component is spanned by u1 - u3 and u2 - u3.  Each candidate is
    certified exactly, by isotropy in the degree-2 algebra (see the
    module docstring; Libgober-Yuzvinsky): this proves it lies in the
    resonance variety, not that it is maximal, and a candidate that
    fails raises OracleError naming the nonzero product.  The sampled
    check off the union, not a proof, belongs to r1_arrangement and does
    not run here; r1_completeness_note is unchanged.  The scan runs on
    the first call and its result is kept on `arr`.  More than
    LINE_LIMIT lines raise ValueError before any of this work starts.
    """
    _check_line_limit(arr)
    if arr._braids is None:
        n = arr.n
        points = multiple_points(arr)
        algebra = os_algebra_deg2(arr)
        found = []
        for subset in combinations(range(1, n + 1), 6):
            pairs = _braid_pattern(points, subset)
            if pairs is None:
                continue
            sub = RationalSubspace(n, [_signed_row(n, p, pairs[2]) for p in pairs[:2]])
            _certify(algebra, sub, f"braid candidate {subset}")
            found.append(BraidComponent(subset, pairs, sub))
        object.__setattr__(arr, "_braids", tuple(found))
    return arr._braids


def _certify(algebra, subspace, what):
    """Raise OracleError unless the basis of `subspace` is isotropic in A^2."""
    obstruction = isotropy_obstruction(algebra, subspace.basis)
    if obstruction is not None:
        i, j, product = obstruction
        raise OracleError(
            f"{what} is not isotropic: basis vectors {i} and {j} multiply to "
            f"({', '.join(map(str, product))}) in A^2"
        )


def r1_arrangement(arr: ProjLineArrangement, seed=0) -> SubspaceArrangement:
    """The local and braid components of the degree-1 resonance arrangement.

    Only these two patterns are searched, so components of other kinds
    (multinets on nine or more lines, as on B3) are missing from the
    result; r1_completeness_note says when that can happen, and the
    certificate below leaves it unchanged.

    Every component is certified exactly, once: the local ones here and
    the braid ones by the scan that finds them.  The certificate is
    isotropy in the degree-2 algebra (Libgober-Yuzvinsky), which proves
    containment in the resonance variety, not maximality.  Then 10 random
    points off the union, drawn from `seed`, are checked to show no jump;
    that check is sampled, not a proof.  Last, the components are
    verified to meet each other only in 0.  Any of these checks failing
    raises (OracleError for a failed certificate or a jump off the
    union).  More than LINE_LIMIT lines raise ValueError before any work
    starts.
    """
    _check_line_limit(arr)
    algebra = os_algebra_deg2(arr)
    comps = _local_subspaces(arr)
    for sub in comps:
        _certify(algebra, sub, f"component of dim {sub.dim}")
    comps.extend(b.subspace for b in braid_subarrangements(arr))
    result = SubspaceArrangement(arr.n, comps)
    rng = random.Random(seed)
    for _ in range(10):
        a = _random_off_union(result, rng)
        if aomoto_betti(algebra, a, 1) != 0:
            raise OracleError(f"rank oracle sees a jump off the union at {a}")
    pieces = result.components
    supports = [_support(p) for p in pieces]
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            # components on disjoint coordinates meet only in 0
            if supports[i] & supports[j] and intersection_dim(pieces[i], pieces[j]) != 0:
                raise ValueError("components must pairwise meet only in 0")
    return result


def _support(subspace):
    """The coordinates where some vector of the subspace is nonzero, as a
    bitmask (bit k for coordinate k+1)."""
    mask = 0
    for row in subspace.basis:
        for k, x in enumerate(row):
            if x:
                mask |= 1 << k
    return mask


def _random_off_union(arrangement, rng):
    while True:
        v = tuple(Q(rng.randint(-9, 9)) for _ in range(arrangement.n))
        if any(v) and not arrangement.contains_vector(v):
            return v


def r1_completeness_note(arr: ProjLineArrangement):
    """Warn when components beyond the braid pattern could exist.

    Non-local components live on sub-arrangements partitioned into three
    classes with all inter-class intersections concurrent along multiple
    points; beyond the six-line braid pattern the smallest such carriers
    have nine lines, each passing through at least two points of
    multiplicity >= 3.  So when nine or more lines are that rich in
    triple points, the reported decomposition may miss components and
    the string "possibly incomplete beyond braid type" is returned;
    otherwise None.
    """
    points = multiple_points(arr)
    rich = set()
    per_line = {}
    for mp in points:
        if mp.multiplicity >= 3:
            for line in mp.lines:
                per_line[line] = per_line.get(line, 0) + 1
                if per_line[line] >= 2:
                    rich.add(line)
    if len(rich) >= 9:
        return "possibly incomplete beyond braid type"
    return None


# ---------------------------------------------------------------------------
# coarse cover bounds and the cohomology-ring presentation
# ---------------------------------------------------------------------------


def omega_bounds(arr: ProjLineArrangement, r: int):
    """Coarse answer for the rank-r cover invariant: 'full', 'empty', or 'undetermined'.

    With m the maximum multiplicity of an intersection point: only
    double points means the invariant is the whole Grassmannian;
    m >= 3 forces it empty once r >= n - m + 2; anything else needs the
    exact membership test.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    points = multiple_points(arr)
    m = max((mp.multiplicity for mp in points), default=2)
    if m == 2:
        return "full"
    if r >= arr.n - m + 2:
        return "empty"
    return "undetermined"


def os_algebra_deg2(arr: ProjLineArrangement):
    """Degree <= 2 part of the arrangement's cohomology ring, as a presentation.

    Degree 1 has one generator per line; degree 2 is the exterior square
    modulo one relation (e_i - e_j)(e_j - e_k) for every concurrent
    triple i < j < k of lines.  Built on the first call and kept on
    `arr`, so all callers share one presentation and aomoto_betti
    compiles it once.
    """
    if arr._algebra is None:
        relations = [
            {(i - 1, j - 1): Q(1), (i - 1, k - 1): Q(-1), (j - 1, k - 1): Q(1)}
            for mp in multiple_points(arr)
            for i, j, k in combinations(mp.lines, 3)
        ]
        object.__setattr__(arr, "_algebra", quotient_exterior_algebra(arr.n, relations))
    return arr._algebra
