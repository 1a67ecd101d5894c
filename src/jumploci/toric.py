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
1-dimensional K) runs the same search with its own passing test, which the
test suite plays against the homological one; vertex connectivity, which
bounds where the graph's invariants vanish, is counted by disjoint paths
instead, so it is never refused.

The translated-torus invariant of degree i reads off the depth-1 loci of
all degrees j <= i at once.  Toric complexes are straight (Papadima-Suciu,
Adv. Math. 2009), so a cover query tests a plane against one coordinate
arrangement: the union of those loci, pruned to its maximal pieces by
`qlinalg._maximal` and cached per (K, min(i, dim K + 1)).  T_K has no
cells above dimension dim K + 1, so the loci of higher degrees are empty
and a larger i asks nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from operator import itemgetter

from .qlinalg import RationalSubspace, _check_size, _maximal, rank_int
from .simplicial import (
    SimplicialComplex,
    count_components,
    edge_adjacency,
    reduced_betti_faces,
)


# ---------------------------------------------------------------------------
# coordinate arrangements


@dataclass(frozen=True, slots=True)
class CoordinateArrangement:
    """A union of coordinate subspaces of Q^n, stored as maximal vertex sets.

    `subsets` holds the nonempty W `qlinalg._maximal` keeps, sorted;
    whether the origin itself belongs to the locus is a separate flag, since
    the empty subset would otherwise be invisible.  `_columns` holds, per
    piece, the number of columns outside W and a getter that reads them off
    a row, fewest columns first; the first `meets_subspace` call builds it,
    and it takes no part in equality, hashing or repr.
    """

    n: int
    subsets: tuple = ()
    contains_origin: bool = True
    _columns: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_size(self.n, "ambient dimension")
        sets = [frozenset(w) for w in self.subsets]
        for w in sets:
            if w and (min(w) < 1 or max(w) > self.n):
                raise ValueError(f"subset {tuple(sorted(w))} out of vertex range 1..{self.n}")
        maximal = _maximal(sets, len, frozenset, frozenset.issuperset)
        object.__setattr__(self, "subsets", tuple(sorted(tuple(sorted(w)) for w in maximal if w)))
        object.__setattr__(self, "contains_origin", bool(self.contains_origin))

    def meets_subspace(self, p: RationalSubspace) -> bool:
        """Does some coordinate piece meet P in dimension >= 1?

        dim(P ∩ Q^W) = dim P - rank(basis columns outside W), so a piece
        with fewer than dim P columns outside W meets P without a rank
        test; otherwise the columns outside W of P's rows are ranked.  The
        columns of each piece are picked once per locus, on the first call,
        and the pieces are tried fewest outside columns first: the largest
        pieces are the likeliest to meet P, and those needing no rank test
        come before every rank test.
        """
        if p.n != self.n:
            raise ValueError("ambient dimensions differ")
        columns = self._columns
        if columns is None:
            columns = []
            for w in self.subsets:
                outside = [j for j in range(self.n) if j + 1 not in w]
                # itemgetter returns a scalar for one column, so a lone
                # column is read twice, which keeps the rank.  With no
                # column (W = V) a P of dim >= 1 meets the piece before the
                # rank test, and P = 0 has no rows to read.
                cols = outside * 2 if len(outside) == 1 else outside
                columns.append((len(outside), itemgetter(*cols) if cols else None))
            columns = tuple(sorted(columns, key=itemgetter(0)))
            object.__setattr__(self, "_columns", columns)
        dim = p.dim
        for count, get in columns:
            if count < dim or rank_int(map(get, p.rows)) < dim:
                return True
        return False

    def codim(self) -> int:
        return self.n - max((len(w) for w in self.subsets), default=0)

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
        _check_size(n, "vertex count")
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

    def connectivity(self) -> int:
        """Vertex connectivity: n-1 for a complete graph (0 for n = 0), else
        the fewest vertices whose removal disconnects, found in polynomial
        time by Even's algorithm (SIAM J. Comput. 1975).  The minimum degree
        bounds it, and is n-1 for K_n.  No fewer than κ vertices separate
        two non-adjacent vertices.  For a minimum cut S, the first vertex s
        outside S comes at index s <= |S| = κ, and a vertex t of another
        component of Γ - S comes after it; s and t are not adjacent, and S
        separates them.  So κ is the least number of disjoint paths between
        non-adjacent s < t with s <= κ."""
        arcs = []
        for v in range(self.n):
            arcs += [{2 * v + 1}, {2 * b.bit_length() - 2 for b in _bits(self.adj[v])}]
        best = min((a.bit_count() for a in self.adj), default=0)
        for s in range(self.n):
            if s > best:
                break
            for t in range(s + 1, self.n):
                if not self.adj[s] >> t & 1:
                    paths = _disjoint_paths([set(a) for a in arcs], s, t, best)
                    best = min(best, paths)
        return best


def _disjoint_paths(arcs: list, s: int, t: int, bound: int) -> int:
    """The number of internally disjoint paths between the non-adjacent
    vertices s and t, counted up to bound; by Menger it is the fewest
    vertices separating them.  `arcs` is the split graph: vertex v enters
    at node 2v and leaves at 2v+1 through an arc of capacity 1, and an edge
    uv gives the arcs 2u+1 -> 2v and 2v+1 -> 2u.  No flow puts more than 1
    on any arc, so capacities are 1, the residual graph is a set of arcs,
    and each path found by breadth-first search reverses its arcs."""
    paths = 0
    while paths < bound:
        parent = {2 * s + 1: None}
        queue = [2 * s + 1]
        for a in queue:
            for b in arcs[a]:
                if b not in parent:
                    parent[b] = a
                    queue.append(b)
        b = 2 * t
        if b not in parent:
            break
        while parent[b] is not None:
            a = parent[b]
            arcs[a].remove(b)
            arcs[b].add(a)
            b = a
        paths += 1
    return paths


def raag_r1(g: Graph) -> CoordinateArrangement:
    """Degree-1 resonance of the right-angled Artin group of the graph: the
    maximal vertex sets W with Γ[W] disconnected.  They are the maximal sets
    passing "Γ[W] disconnected, or N[W] != V" (N the closed neighbourhood),
    a test closed under subsets: a connected U in a disconnected Γ[W] misses
    the neighbours of another component, and N[U] ⊆ N[W].  A connected W
    with v outside N[W] is not maximal: W ∪ {v} is disconnected.  For n = 0,
    ∅ fails: N[∅] = V."""
    full = (1 << g.n) - 1
    adj = dict(zip(_bits(full), g.adj))

    def passes(w):
        near = w
        for b in _bits(w):
            near |= adj[b]
        return near != full or count_components(w, adj) > 1

    return _maximal_sets(g.n, passes)


def _mask_to_subset(mask: int):
    return tuple(b.bit_length() for b in _bits(mask))


def omega_vanishing_bound(g: Graph, r: int) -> bool:
    """May the rank-r translated-torus invariant be certified empty?

    For r > n the answer is True for every graph, complete ones included:
    Q^n holds no r-plane, so the invariant is vacuously empty.  For r <= n
    it is True exactly when every r-plane meets raag_r1, i.e. r exceeds its
    codimension: the connectivity when the graph is not complete (a minimum
    cut S leaves the disconnected V \\ S).  A complete graph has resonance
    {0} and is never certified.  Only the connectivity is computed, so no
    graph is refused.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    complete = len(g.edges) == g.n * (g.n - 1) // 2
    return r > g.n or (not complete and r > g.connectivity())


# ---------------------------------------------------------------------------
# toric complexes


def _require_toric(k: SimplicialComplex):
    """Refuse a vertex of 1..n that is no face, naming ten at most, from 1 up."""
    have = set(v for f in k.facets for v in f)
    absent = k.n - len(have)
    if absent:
        missing = list(islice((v for v in range(1, k.n + 1) if v not in have), min(absent, 10)))
        more = f" and {absent - 10} more" if absent > 10 else ""
        raise ValueError(
            f"vertices {missing}{more} are not faces; the ambient torus needs every "
            "vertex of 1..n to be a cell"
        )


# toric_resonance and raag_r1 refuse a search needing more vertex-set tests
# than this.  The largest count measured on the scale ladders is 5,279, for
# the cycle C_30 in degree 1 (gen.random_complex on 8-18 vertices, seeds 1-10,
# degrees 0-3, depths 1-3, stays below 3,600); the limit is over 20 times
# that.  C_60 takes 39,354 tests, in 0.6 s on a 2-vCPU Xeon (Python 3.11).
ORACLE_CALL_LIMIT = 120_000


@lru_cache(maxsize=256)
def toric_resonance(k: SimplicialComplex, i: int, d: int) -> CoordinateArrangement:
    """Degree-i depth-d resonance of the toric complex of K.

    Returns the maximal vertex subsets W with Q^W inside the locus, plus the
    origin flag (the empty subset's test is d <= number of size-i faces).
    A search over ORACLE_CALL_LIMIT tests of vertex sets raises ValueError.
    """
    if i < 0:
        raise ValueError("degree must be >= 0")
    if d < 1:
        raise ValueError("depth must be >= 1")
    _require_toric(k)
    return _maximal_sets(k.n, _passing_test(k, i, d))


def _maximal_sets(n: int, test) -> CoordinateArrangement:
    """The locus of the maximal vertex sets passing `test`, a test on
    bitmasks closed under subsets.  If ∅ fails it is empty, origin
    included; if V passes it is {V}; otherwise joint generation (module
    docstring) finds the sets.  Every call of `test`, these two included,
    counts against ORACLE_CALL_LIMIT; the call over it raises ValueError."""
    calls = 0

    def passes(w):
        nonlocal calls
        calls += 1
        if calls > ORACLE_CALL_LIMIT:
            raise ValueError(
                f"toric resonance search refused after {calls} tests of vertex "
                f"sets, above the limit of {ORACLE_CALL_LIMIT}"
            )
        return test(w)

    full = (1 << n) - 1
    if not passes(0):
        return CoordinateArrangement(n, (), contains_origin=False)
    if passes(full):
        return CoordinateArrangement(n, [_mask_to_subset(full)])
    maximal, _ = _joint_generation(n, passes)
    return CoordinateArrangement(n, [_mask_to_subset(w) for w in maximal])


def _passing_test(k: SimplicialComplex, i: int, d: int):
    """The test "does Q^W lie in the degree-i depth-d locus" on bitmasks W.

    Each face sigma with |sigma| <= i contributes, when it avoids W, the
    reduced Betti number of lk_{K_W}(sigma) in degree i-1-|sigma|.  That
    link is lk_K(sigma) restricted to W, so it depends on W only through
    W & span, span being the vertices of lk_K(sigma).
    - Degree -1: 1 when W & span is empty; with sigma & W empty as well,
      1 when W misses the closed star sigma | span.
    - Degree 0: the components of the link's 1-skeleton on W & span, less
      one (none when W & span is empty), by simplicial.count_components.
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
            vertices = [tau for tau in link if tau.bit_count() == 1]
            edges = [tau for tau in link if tau.bit_count() == 2]
            graphs.append((sigma, span, edge_adjacency(vertices, edges)))
        else:
            small = tuple(tau for tau in link if tau.bit_count() <= degree + 2)
            higher.append((sigma, span, small, degree))
    memo = {}

    def passes(w):
        total = 0
        for star in stars:
            if not star & w:
                total += 1
        if total >= d:
            return True
        for sigma, span, adj in graphs:
            if sigma & w:
                continue
            count = count_components(w & span, adj)
            if count:
                total += count - 1
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
    are not.  That union is one pruned arrangement, cached per
    (K, min(i, dim K + 1)) (module docstring).
    """
    if i < 0:
        raise ValueError("degree must be >= 0")
    if r < 1:
        raise ValueError("rank must be >= 1")
    if p.n != k.n:
        raise ValueError("plane ambient dimension differs from the vertex count")
    if p.dim != r:
        raise ValueError(f"subspace has dimension {p.dim}, expected rank {r}")
    return not _accumulated_resonance(k, min(i, k.dim() + 1)).meets_subspace(p)


@lru_cache(maxsize=256)
def _accumulated_resonance(k: SimplicialComplex, i: int) -> CoordinateArrangement:
    """The union of the depth-1 resonance loci of degrees 0..i, as one
    arrangement of maximal pieces; the loci of toric_resonance are only
    read.  It holds the origin, as the degree-0 locus does."""
    pieces = [w for j in range(i + 1) for w in toric_resonance(k, j, 1).subsets]
    return CoordinateArrangement(k.n, pieces)
