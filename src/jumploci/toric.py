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
W' ⊆ W: the passing vertex sets are closed under taking subsets.
toric_resonance therefore searches them level by level from the empty set
(as Apriori does for frequent item sets), testing a set only once every
subset one vertex smaller has passed, and keeps only the maximal ones.  All
arithmetic is exact.  The graph layer (right-angled Artin groups =
1-dimensional K) has its own direct combinatorial route, which the test
suite plays against the homological one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .qlinalg import RationalSubspace, rank_int
from .simplicial import SimplicialComplex, link_faces, reduced_betti_faces


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


@lru_cache(maxsize=256)
def toric_resonance(k: SimplicialComplex, i: int, d: int) -> CoordinateArrangement:
    """Degree-i depth-d resonance of the toric complex of K.

    Returns the maximal vertex subsets W with Q^W inside the locus, plus the
    origin flag (the empty subset's test is d <= number of size-i faces).
    If the empty set fails nothing passes; if the full vertex set passes it
    is the only maximal set.  Otherwise the passing sets are searched
    bottom-up, one size at a time.
    """
    if i < 0:
        raise ValueError("degree must be >= 0")
    if d < 1:
        raise ValueError("depth must be >= 1")
    _require_toric(k)
    n = k.n
    faces = k.face_masks()
    # per face sigma with |sigma| <= i: lk_K(sigma), its vertex union and
    # the homology degree it contributes in
    links = []
    for sigma in faces:
        size = sigma.bit_count()
        if size > i:
            continue
        link = tuple(f ^ sigma for f in faces if f & sigma == sigma)
        span = 0
        for tau in link:
            span |= tau
        links.append((sigma, link, span, i - 1 - size))
    # lk_{K_W}(sigma) depends on W only through W & span
    memo = {}

    def passes(w):
        total = 0
        for sigma, link, span, degree in links:
            if sigma & w:
                continue
            key = (sigma, w & span)
            b = memo.get(key)
            if b is None:
                b = memo[key] = reduced_betti_faces(link_faces(link, w), degree)
            total += b
            if total >= d:
                return True
        return False

    full = (1 << n) - 1
    if not passes(0):
        return CoordinateArrangement(n, (), contains_origin=False)
    if passes(full):
        return CoordinateArrangement(n, [_mask_to_subset(full)])
    # level holds the passing sets of one size.  A candidate one vertex
    # larger is built once, from itself minus its highest vertex, and tested
    # only if all its subsets one vertex smaller passed.  A passing set is
    # maximal when no passing set one vertex larger contains it.
    maximal = []
    level = {0}
    while level:
        grown = set()
        for w in level:
            for v in range(w.bit_length(), n):
                c = w | 1 << v
                if c != full and all(c ^ b in level for b in _bits(c)) and passes(c):
                    grown.add(c)
        covered = {c ^ b for c in grown for b in _bits(c)}
        maximal.extend(w for w in level if w not in covered)
        level = grown
    return CoordinateArrangement(n, [_mask_to_subset(w) for w in maximal])


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
