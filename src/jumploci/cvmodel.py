"""Presented models of cohomology jump loci inside the character torus.

A model lists the irreducible pieces of a jump locus in (C^*)^n as the
caller knows them: finitely many translated subtori, each a direction
subspace L <= Q^n together with a rational translation vector q taken
mod Z^n (the actual subset is exp(2*pi*i*q) * exp(L (x) C)), plus a
finite set of isolated torsion points.  All the decision procedures
here — straightness classification, membership tests for the sets of
finite-index abelian covers with finite-rank invariants, and the
witness construction showing the resonance upper bound can be strict —
reduce to exact lattice/coset arithmetic over Q, so every answer is
exact.

The model is trusted as a component decomposition; nothing here tries
to verify irreducibility or redundancy of the given pieces.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .qlinalg import (
    RationalSubspace,
    SubspaceArrangement,
    coset_in_subspace_mod_lattice,
    intersection_dim,
    meets_nontrivially,
    primitive_integer_vector,
    qvector,
    subspace_sum,
)

Q = Fraction

# Most translates q + lambda a strictness witness search may try; each
# builds a plane, and on a 2-vCPU Xeon (Python 3.11.7) a search refused at
# 20,000 takes 0.7-0.9 s in dimensions 5 and 6.
WITNESS_LIMIT = 20_000


def _reduce_mod_lattice(vector):
    """Reduce each coordinate into [0, 1) — the canonical coset representative."""
    out = []
    for x in qvector(vector):
        out.append(Q(x.numerator % x.denominator, x.denominator))
    return tuple(out)


# ---------------------------------------------------------------------------
# model types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TranslatedTorus:
    """One positive-or-zero dimensional piece: direction subspace + translation.

    The translation vector is stored reduced mod Z^n with coordinates in
    [0, 1), so equal cosets compare equal.
    """

    direction: RationalSubspace
    q: tuple

    def __post_init__(self):
        q = _reduce_mod_lattice(self.q)
        if len(q) != self.direction.n:
            raise ValueError("translation vector length must match the ambient dimension")
        object.__setattr__(self, "q", q)

    @property
    def n(self):
        return self.direction.n

    @property
    def dim(self):
        return self.direction.dim

    def passes_through_origin(self) -> bool:
        """True iff the piece contains the identity character, i.e. q in L + Z^n."""
        return coset_in_subspace_mod_lattice(self.q, self.direction)


@dataclass(frozen=True, slots=True)
class CVModel:
    """A jump locus presented as translated subtori plus isolated points.

    Positive-dimensional pieces go in ``components``; zero-dimensional
    ones go in ``isolated_points`` (reduced mod Z^n, deduplicated,
    sorted).  The identity character itself, when it belongs to the
    locus, is recorded as the isolated point 0 unless it already lies
    on a listed component.
    """

    n: int
    components: tuple = ()
    isolated_points: tuple = ()

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise ValueError("ambient dimension must be >= 0")
        components = tuple(self.components)
        for c in components:
            if not isinstance(c, TranslatedTorus):
                raise TypeError("components must be TranslatedTorus instances")
            if c.n != n:
                raise ValueError("component ambient dimension mismatch")
            if c.dim == 0:
                raise ValueError("zero-dimensional pieces belong in isolated_points")
        components = tuple(
            sorted(components, key=lambda c: (-c.dim, c.direction.basis, c.q))
        )
        points = sorted({_reduce_mod_lattice(p) for p in self.isolated_points})
        for p in points:
            if len(p) != n:
                raise ValueError("isolated point length must match the ambient dimension")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "isolated_points", tuple(points))


# ---------------------------------------------------------------------------
# tangent directions and straightness
# ---------------------------------------------------------------------------


def model_tau1(model: CVModel) -> SubspaceArrangement:
    """Directions of the components through the identity, as an arrangement.

    This is the set of rational directions along which one-parameter
    subgroups through the identity stay inside the modeled locus;
    isolated points contribute nothing positive-dimensional.
    """
    dirs = [c.direction for c in model.components if c.passes_through_origin()]
    return SubspaceArrangement(model.n, dirs)


def classify_straightness(models, res):
    """Run the three straightness conditions degree by degree.

    ``models`` maps each degree to a CVModel and ``res`` maps the same
    degrees to resonance arrangements.  Per degree the conditions are:

      (a) every positive-dimensional component through the identity is
          an honest subtorus — automatic in this presentation, since
          "through the identity" already means the translation lies in
          direction + Z^n, which makes the piece equal to its direction
          subtorus;
      (b) the directions through the identity match the resonance
          arrangement exactly;
      (c) every component off the identity is zero-dimensional.

    Returns a dict with ``locally_k_straight`` (no (a)/(b) failure at
    any degree), ``k_straight`` (no failure at all), and the first
    failing condition with its degree, scanning degrees in increasing
    order and conditions in order (a), (b), (c) within a degree.
    """
    degrees = sorted(models)
    if sorted(res) != degrees:
        raise ValueError("models and resonance data must cover the same degrees")
    if not degrees:
        raise ValueError("need at least one degree")
    n = models[degrees[0]].n
    for i in degrees:
        if models[i].n != n or res[i].n != n:
            raise ValueError("ambient dimensions differ across degrees")
    violations = []
    for i in degrees:
        model = models[i]
        # (a) cannot fail for data in this presentation; see the docstring.
        if model_tau1(model) != res[i]:
            violations.append(("b", i))
        if any(not c.passes_through_origin() for c in model.components):
            violations.append(("c", i))
    first = violations[0] if violations else (None, None)
    return {
        "locally_k_straight": all(cond == "c" for cond, _ in violations),
        "k_straight": not violations,
        "failing_condition": first[0],
        "degree": first[1],
    }


# ---------------------------------------------------------------------------
# membership tests for the exponential test planes
# ---------------------------------------------------------------------------


def omega_member(model: CVModel, plane: RationalSubspace) -> bool:
    """Does the r-torus exp(plane (x) C) meet the modeled locus in a finite set?

    The intersection with a translated subtorus (L, q) is, when
    nonempty, a coset of exp((plane ^ L) (x) C); it is infinite exactly
    when dim(plane ^ L) >= 1 and the translation lies in
    plane + L + Z^n.  Isolated points only ever contribute finitely
    many intersection points, so they never obstruct membership.
    """
    if plane.n != model.n:
        raise ValueError("ambient dimensions differ")
    if plane.dim < 1:
        raise ValueError("test plane must be positive-dimensional")
    for c in model.components:
        if intersection_dim(plane, c.direction) >= 1 and coset_in_subspace_mod_lattice(
            c.q, subspace_sum(plane, c.direction)
        ):
            return False
    return True


def sigma_member(res: SubspaceArrangement, plane: RationalSubspace) -> bool:
    """Does the plane meet some resonance component in dimension >= 1?"""
    return meets_nontrivially(plane, res)


def omega_exact_straight(res: SubspaceArrangement, plane: RationalSubspace) -> bool:
    """Membership computed from resonance alone.

    Valid as an exact answer only when the underlying space has been
    classified straight in the relevant degrees; the caller owns that
    contract.
    """
    return not sigma_member(res, plane)


def omega_upper_bound(res: SubspaceArrangement, plane: RationalSubspace) -> bool:
    """Necessary condition from resonance alone.

    False here rules membership out whenever the space is locally
    straight; True only says the resonance obstruction is silent.
    """
    return not sigma_member(res, plane)


def schubert_codim(subspace: RationalSubspace, r: int) -> int:
    """Codimension of the incidence locus {r-planes meeting the subspace}.

    Inside the Grassmannian of r-planes of Q^n the planes meeting a
    fixed proper subspace nontrivially form a subvariety of codimension
    codim(subspace) - r + 1, clamped at 0 (at 0 every r-plane meets it,
    by dimension count).
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if subspace.dim == subspace.n:
        raise ValueError("subspace must be proper")
    return max(subspace.codim() - r + 1, 0)


def plucker2(plane: RationalSubspace):
    """Six homogeneous coordinates for a 2-plane in Q^4.

    Returns the 2x2 minors, in column order (12, 13, 14, 23, 24, 34),
    of the canonical integer rows of the plane's annihilator, scaled to
    a primitive integer vector with first nonzero entry positive.  With
    this normalization the classical quadratic identity
    p12*p34 - p13*p24 + p23*p14 = 0 holds, and incidence with a fixed
    2-plane is a single linear condition in the six coordinates.
    """
    if plane.n != 4:
        raise ValueError("ambient dimension must be 4")
    if plane.dim != 2:
        raise ValueError("expected a 2-dimensional subspace")
    rows = plane.annihilator().rows
    minors = []
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        minors.append(rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i])
    return tuple(Q(x) for x in primitive_integer_vector(minors))


# ---------------------------------------------------------------------------
# strictness witness
# ---------------------------------------------------------------------------


def strictness_witness(component: TranslatedTorus, res: SubspaceArrangement, bound: int):
    """Search for a 2-plane where the resonance bound is strict.

    Given a 1-dimensional translated component not through the identity
    and a resonance arrangement all of whose components have codimension
    at least 2, look for a 2-plane P0 = span(direction, q + lambda) with
    lambda an integer vector, max-norm at most ``bound``, such that P0
    meets no resonance component positively.  Such a P0 passes the
    resonance test yet the translated component forces an infinite
    intersection (its direction lies in P0 and q is in P0 + Z^n by
    construction), so membership fails: the two tests genuinely differ.

    Shells of increasing max-norm are searched first, lexicographically
    within a shell, so the result is deterministic.  Returns the first
    such plane, or None when the search box is exhausted (existence is
    only guaranteed for a large enough box).  Hypothesis violations
    raise ValueError instead, and so does a search that would try more
    than `WITNESS_LIMIT` translates: the box holds (2 * bound + 1)^n.
    """
    n = component.n
    if res.n != n:
        raise ValueError("ambient dimensions differ")
    if component.dim != 1:
        raise ValueError("witness construction needs a 1-dimensional component")
    if component.passes_through_origin():
        raise ValueError("component must not pass through the identity")
    for c in res.components:
        if c.codim() < 2:
            raise ValueError("resonance components must have codimension at least 2")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    line = component.direction
    tried = 0
    for radius in range(bound + 1):
        for lam in product(range(-radius, radius + 1), repeat=n):
            if radius and max(abs(x) for x in lam) != radius:
                continue
            tried += 1
            if tried > WITNESS_LIMIT:
                raise ValueError(
                    f"witness search too large: more than {WITNESS_LIMIT} "
                    f"translates within bound {bound} in dimension {n}"
                )
            shifted = tuple(qi + li for qi, li in zip(component.q, lam))
            # a 2-plane: q + lam on the line would put the identity on the component
            plane = RationalSubspace.span(n, line.rows + (shifted,))
            if meets_nontrivially(plane, res):
                continue
            return plane
    return None
