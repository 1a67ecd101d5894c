"""Jump loci of toric complexes and right-angled Artin groups.

A simplicial complex K on {1..n} determines a cell subcomplex of the n-torus
whose degree-i resonance and characteristic loci are unions of coordinate
pieces: for each vertex subset W the coordinate subspace Q^W (respectively
the subtorus of characters supported on W) belongs to the degree-i depth-d
locus iff

    sum over faces sigma of K avoiding W of
        dim H~_{i-1-|sigma|}( lk_{K_W}(sigma) )   >=   d,

where the link is taken inside the induced subcomplex on W and sigma = ∅
contributes the induced subcomplex itself.

The loci are Zariski-closed, so if Q^W lies in one, so does Q^{W'} for every
W' ⊆ W: the passing vertex sets are closed under taking subsets, and the
failing ones under taking supersets.  The answer is the family of maximal
passing sets, and toric_resonance finds it by joint generation
(dualize-and-advance: Gunopulos et al., ACM TODS 2003), so that the number
of tests follows the maximal passing and minimal failing sets, not the
whole passing family.  A first maximal set is grown greedily from ∅, one
vertex at a time.  The candidates are then the minimal transversals of the
complements V∖M of the maximal sets M found so far, that is the minimal
vertex sets inside none of them; Berge's step updates them each time a
maximal set is added.  A passing candidate is grown greedily into a new
maximal set.  A failing one stays a minimal transversal for good, since a
new maximal set passes and cannot contain it, so it is never tested
twice.  The search is complete once every candidate has failed: a passing
set inside no maximal set found would contain a candidate, which would
then pass.  The failed candidates are then exactly the minimal failing
sets: each fails while its proper subsets, lying in maximal sets, pass, and
a minimal failing set contains a failed candidate, so it is one.  All
arithmetic is exact.  The graph layer (right-angled Artin groups =
1-dimensional K) has its own direct combinatorial route, which the test
suite plays against the homological one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .qlinalg import RationalSubspace, rank_int
from .simplicial import SimplicialComplex, reduced_betti_faces


# ---------------------------------------------------------------------------
# coordinate arrangements


@dataclass(frozen=True, slots=True)
class CoordinateArrangement:
    """A union of coordinate subspaces of Q^n, stored as maximal vertex sets.

    `subsets` holds only nonempty maximal W (lexicographically sorted);
    whether the origin itself belongs to the locus is a separate flag, since
    the empty subset would otherwise be invisible.
    """

    n: int
    subsets: tuple = ()
    contains_origin: bool = True

    def __post_init__(self):
        masks = set()
        for w in self.subsets:
            w = tuple(sorted(set(w)))
            if not w:
                continue
            if w[0] < 1 or w[-1] > self.n:
                raise ValueError(f"subset {w} out of vertex range 1..{self.n}")
            masks.add(sum(1 << (v - 1) for v in w))
        # Largest sets first: a set is maximal when no maximal set kept so
        # far contains it (w & ~v == 0); a set of equal size cannot.
        maximal = []
        for w in sorted(masks, key=int.bit_count, reverse=True):
            if all(w & ~v for v in maximal):
                maximal.append(w)
        object.__setattr__(self, "subsets", tuple(sorted(map(_mask_to_subset, maximal))))
        object.__setattr__(self, "contains_origin", bool(self.contains_origin))

    def meets_subspace(self, p: RationalSubspace) -> bool:
        """Does some coordinate piece meet P in dimension >= 1?

        dim(P ∩ Q^W) = dim P - rank(basis columns outside W).
        """
        if p.n != self.n:
            raise ValueError("ambient dimensions differ")
        if p.dim == 0 or not self.subsets:
            return False
        rows = p._integer_basis()
        for w in self.subsets:
            outside = [j for j in range(self.n) if (j + 1) not in w]
            sub = [[row[j] for j in outside] for row in rows]
            if rank_int(sub) < p.dim:
                return True
        return False

    def codim(self) -> int:
        if not self.subsets:
            return self.n
        return self.n - max(len(w) for w in self.subsets)

    def __iter__(self):
        return iter(self.subsets)

    def __len__(self):
        return len(self.subsets)


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True, slots=True)
class Graph:
    """A finite simple graph on {1..n} with bitmask adjacency."""

    n: int
    edges: tuple = ()
    adj: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        seen = set()
        for e in self.edges:
            a, b = e
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge {e} out of range 1..{n}")
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            seen.add((min(a, b), max(a, b)))
        adj = [0] * n
        for a, b in seen:
            adj[a - 1] |= 1 << (b - 1)
            adj[b - 1] |= 1 << (a - 1)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def from_one_skeleton(cls, k: SimplicialComplex) -> "Graph":
        return cls(k.n, k.one_skeleton_edges())

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(self.adj[v] == full & ~(1 << v) for v in range(self.n))

    def _connected_mask(self, mask: int) -> bool:
        """Is the induced subgraph on the mask connected?  Empty mask: yes."""
        if mask == 0:
            return True
        start = mask & -mask
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= self.adj[v] & mask
            frontier = nxt & ~seen
            seen |= nxt
        return seen & mask == mask

    def connectivity(self) -> int:
        """Vertex connectivity: n-1 for complete graphs, 0 when disconnected,
        else the smallest number of vertices whose removal disconnects."""
        n = self.n
        if n == 0:
            return 0
        full = (1 << n) - 1
        if not self._connected_mask(full):
            return 0
        if self.is_complete():
            return n - 1
        for k in range(1, n - 1):
            for cut in itertools.combinations(range(n), k):
                rest = full
                for v in cut:
                    rest &= ~(1 << v)
                if not self._connected_mask(rest):
                    return k
        return n - 1


def raag_r1(g: Graph) -> CoordinateArrangement:
    """Degree-1 resonance of the right-angled Artin group of the graph:
    the maximal vertex subsets inducing a disconnected subgraph."""
    n = g.n
    passing = []
    for mask in range(1, 1 << n):
        if not g._connected_mask(mask):
            passing.append(_mask_to_subset(mask))
    return CoordinateArrangement(n, passing, contains_origin=n >= 1)


def _mask_to_subset(mask: int):
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def omega_vanishing_bound(g: Graph, r: int) -> bool:
    """May the rank-r translated-torus invariant be certified empty?

    True exactly when r >= connectivity + 1 and the graph is not complete:
    a minimum vertex cut W = V \\ cut yields a resonance piece of codimension
    equal to the connectivity, which every r-plane of that corank must meet.
    Complete graphs are never certified — their resonance is trivial and the
    invariant stays full in every rank.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    if r > g.n:
        return True
    if g.is_complete():
        return False
    return r >= g.connectivity() + 1


# ---------------------------------------------------------------------------
# toric complexes


def _require_toric(k: SimplicialComplex):
    have = set(v for f in k.facets for v in f)
    missing = [v for v in range(1, k.n + 1) if v not in have]
    if missing:
        raise ValueError(
            f"vertices {missing} are not faces; the ambient torus needs every "
            "vertex of 1..n to be a cell"
        )


# toric_resonance refuses a search that needs more tests of vertex sets than
# this.  The largest count measured on the scale ladders is 5,279, for the
# cycle C_30 in degree 1 (gen.random_complex on 8-18 vertices, seeds 1-10,
# degrees 0-3, depths 1-3, stays below 3,600); the limit is over 20 times
# that.  C_60 takes 39,354 tests, in 0.6 s on a 2-vCPU Xeon (Python 3.11).
ORACLE_CALL_LIMIT = 120_000


@lru_cache(maxsize=256)
def toric_resonance(k: SimplicialComplex, i: int, d: int) -> CoordinateArrangement:
    """Degree-i depth-d resonance of the toric complex of K.

    Returns the maximal vertex subsets W with Q^W inside the locus, plus the
    origin flag (the empty subset's test is d <= number of size-i faces).
    If the empty set fails nothing passes; if the full vertex set passes it
    is the only maximal set.  Otherwise the maximal sets come from joint
    generation (module docstring).  A search that would test more than
    ORACLE_CALL_LIMIT vertex sets raises ValueError.
    """
    if i < 0:
        raise ValueError("degree must be >= 0")
    if d < 1:
        raise ValueError("depth must be >= 1")
    _require_toric(k)
    n = k.n
    passes = _passing_test(k, i, d)
    full = (1 << n) - 1
    if not passes(0):
        return CoordinateArrangement(n, (), contains_origin=False)
    if passes(full):
        return CoordinateArrangement(n, [_mask_to_subset(full)])
    maximal, _ = _joint_generation(n, passes)
    return CoordinateArrangement(n, [_mask_to_subset(w) for w in maximal])


def _passing_test(k: SimplicialComplex, i: int, d: int):
    """The test "does Q^W lie in the degree-i depth-d locus" on vertex
    bitmasks W, counting its calls against ORACLE_CALL_LIMIT.

    Each face sigma with |sigma| <= i contributes, when it avoids W, the
    reduced Betti number of lk_{K_W}(sigma) in degree i-1-|sigma|.  That
    link is lk_K(sigma) restricted to W, so it depends on W only through
    W & span, span being the vertices of lk_K(sigma).
    - Degree -1: 1 when W & span is empty; with sigma & W empty as well,
      1 when W misses the closed star sigma | span.
    - Degree 0: the components of the link's 1-skeleton on W & span, less
      one, by breadth-first search on bitmasks.
    - Degree >= 1: the link faces with at most degree+2 vertices inside W,
      ranked by reduced_betti_faces and memoized on (sigma, W & span).
    """
    faces = k.face_masks()
    stars = []
    graphs = []
    higher = []
    for sigma in faces:
        size = sigma.bit_count()
        if size > i:
            continue
        link = [f ^ sigma for f in faces if f & sigma == sigma]
        span = 0
        for tau in link:
            span |= tau
        degree = i - 1 - size
        if degree == -1:
            stars.append(sigma | span)
        elif degree == 0:
            adj = {}
            for tau in link:
                if tau.bit_count() == 2:
                    low = tau & -tau
                    adj[low] = adj.get(low, 0) | tau ^ low
                    adj[tau ^ low] = adj.get(tau ^ low, 0) | low
            graphs.append((sigma, span, adj))
        else:
            small = tuple(tau for tau in link if tau.bit_count() <= degree + 2)
            higher.append((sigma, span, small, degree))
    memo = {}
    calls = 0

    def passes(w):
        nonlocal calls
        calls += 1
        if calls > ORACLE_CALL_LIMIT:
            raise ValueError(
                f"toric resonance search refused after {calls} tests of vertex "
                f"sets, above the limit of {ORACLE_CALL_LIMIT}"
            )
        total = 0
        for star in stars:
            if not star & w:
                total += 1
        if total >= d:
            return True
        for sigma, span, adj in graphs:
            if sigma & w:
                continue
            unseen = w & span
            if unseen:
                total -= 1
            while unseen:
                total += 1
                frontier = unseen & -unseen
                while frontier:
                    unseen ^= frontier
                    reach = 0
                    while frontier:
                        low = frontier & -frontier
                        reach |= adj.get(low, 0)
                        frontier ^= low
                    frontier = reach & unseen
            if total >= d:
                return True
        outside = ~w
        for sigma, span, small, degree in higher:
            if sigma & w:
                continue
            key = (sigma, w & span)
            b = memo.get(key)
            if b is None:
                b = memo[key] = reduced_betti_faces(
                    [tau for tau in small if not tau & outside], degree
                )
            total += b
            if total >= d:
                return True
        return False

    return passes


def _joint_generation(n: int, passes):
    """Maximal passing and minimal failing subsets of an n-bit universe.

    `passes` must hold on the empty set, fail on the full set and be closed
    under subsets.  Returns (maximal passing masks, minimal failing masks),
    each in the order found.  The candidates are the minimal transversals
    of the complements of the maximal sets found so far, kept up to date
    by Berge's step; a passing candidate is grown greedily into a new
    maximal set, and a failing one is a minimal failing set.  The search
    ends when no candidate is left untested.
    """
    full = (1 << n) - 1

    def grow(w):
        # one pass suffices: a vertex refused now is refused for every
        # larger set, since the failing sets are closed under supersets
        for v in range(n):
            b = 1 << v
            if not w & b and passes(w | b):
                w |= b
        return w

    first = grow(0)
    maximal = [first]
    failed = []
    pending = list(_bits(full & ~first))
    while pending:
        t = pending.pop()
        if not passes(t):
            # every later complement meets t, so t stays a minimal transversal
            failed.append(t)
            continue
        m = grow(t)
        maximal.append(m)
        edge = full & ~m
        hit = [p for p in pending if p & edge]
        # Berge's step: a transversal missing the new edge gains one vertex b
        # of it, and stays only if no transversal meeting the edge lies
        # inside it; such a transversal meets the edge in b alone
        meets_once = {}
        for x in failed + hit:
            low = x & edge
            if low == low & -low:
                meets_once.setdefault(low, []).append(x)
        fresh = [
            p | b
            for p in pending + [t]
            if not p & edge
            for b in _bits(edge)
            if all(x & ~(p | b) for x in meets_once.get(b, ()))
        ]
        pending = hit + fresh
    return maximal, failed


def _bits(mask: int):
    """The single-bit masks of the set bits of mask."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def toric_cv(k: SimplicialComplex, i: int, d: int) -> CoordinateArrangement:
    """Degree-i depth-d characteristic locus of the toric complex: the union
    of the subtori supported on exactly the same subsets as toric_resonance
    (the coordinate pieces are the tangent cones of the subtori at 1)."""
    return toric_resonance(k, i, d)


def toric_omega_member(
    k: SimplicialComplex, i: int, r: int, p: RationalSubspace
) -> bool:
    """Is the rank-r subspace P in the degree-i translated-torus invariant?

    P belongs iff it meets no component of the resonance accumulated over
    degrees <= i (depth 1) in positive dimension.  The degrees below i all
    count: the invariants are nested in i even though the single-degree loci
    are not.
    """
    if i < 0:
        raise ValueError("degree must be >= 0")
    if r < 1:
        raise ValueError("rank must be >= 1")
    if p.n != k.n:
        raise ValueError("plane ambient dimension differs from the vertex count")
    if p.dim != r:
        raise ValueError(f"subspace has dimension {p.dim}, expected rank {r}")
    return not any(toric_resonance(k, j, 1).meets_subspace(p) for j in range(i + 1))
