"""Finite simplicial complexes on vertex sets {1..n}, with exact homology.

A complex is stored by its facets (maximal faces); the face set is the
downward closure and always contains the empty face.  The complex with no
facets is the empty complex {∅}: its reduced Betti number in degree -1 is 1.
Reduced Betti numbers come from the ranks of the augmented boundary maps on
faces encoded as vertex bitmasks (bit v-1 for vertex v).  The two lowest
ranks are combinatorial: the augmentation has rank 1 when there is a vertex,
and the vertex-edge map has rank V - c for c connected components.  Only the
higher boundary matrices go through exact integer elimination.  The
component count, a breadth-first search on bitmasks, is the one the toric
search and the graph layer use as well.  Nothing is cached here: the toric
search keeps its own memo for the duration of one call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .qlinalg import rank_int

# Largest sum of 2^|F| over the maximal facets F, a bound on the number of
# faces, which are all built on construction: the full simplex on 18
# vertices (2^18 faces) takes 0.6-0.9 s and 225 MB on a 2-vCPU Xeon, and
# every two more vertices cost four times as much.
FACE_LIMIT = 1 << 18


class ComplexTooLarge(ValueError):
    """A well-formed complex whose faces are too many to build."""


@dataclass(frozen=True, slots=True)
class SimplicialComplex:
    """A simplicial complex given by facets over the vertex universe {1..n}.

    Vertices that appear in no facet are allowed in the universe but are not
    faces; homology sees only actual faces.
    """

    facets: tuple = ()
    n: int | None = None
    faces: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        fs = [frozenset(f) for f in self.facets]
        for f in fs:
            for v in f:
                if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                    raise ValueError(f"vertices must be positive integers, got {v!r}")
        n = self.n
        if n is None:
            n = max((max(f) for f in fs if f), default=0)
        elif n < 0:
            raise ValueError("vertex count must be >= 0")
        else:
            for f in fs:
                if f and max(f) > n:
                    raise ValueError(f"facet {sorted(f)} exceeds vertex universe 1..{n}")
        # keep only maximal faces, canonically ordered
        maximal = [f for f in fs if not any(f < g for g in fs)]
        uniq = sorted(set(maximal) - {frozenset()}, key=lambda f: (len(f), sorted(f)))
        bound = sum(1 << len(f) for f in uniq)
        if bound > FACE_LIMIT:
            raise ComplexTooLarge(
                f"complex too large: its facets have {bound} subsets in all, "
                f"above the limit of {FACE_LIMIT}"
            )
        faces = {frozenset()}
        for f in uniq:
            for k in range(1, len(f) + 1):
                faces.update(frozenset(c) for c in itertools.combinations(f, k))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facets", tuple(uniq))
        object.__setattr__(self, "faces", frozenset(faces))

    def vertices(self) -> tuple:
        return tuple(sorted(set().union(*self.facets)))

    def has_face(self, sigma) -> bool:
        return frozenset(sigma) in self.faces

    def dim(self) -> int:
        """Dimension of the complex; -1 for the empty complex.  The facets
        are ordered by size, so the last one is the largest."""
        return len(self.facets[-1]) - 1 if self.facets else -1

    def skeleton(self, k: int) -> "SimplicialComplex":
        """The k-skeleton (all faces with at most k+1 vertices)."""
        faces = [f for f in self.faces if 0 < len(f) <= k + 1]
        return SimplicialComplex(faces, n=self.n)

    def face_masks(self) -> tuple:
        """Every face as a vertex bitmask (bit v-1 for vertex v), ascending;
        the empty face is 0."""
        return tuple(sorted(sum(1 << (v - 1) for v in f) for f in self.faces))

    def one_skeleton_edges(self):
        return tuple(sorted(tuple(sorted(f)) for f in self.faces if len(f) == 2))


def full_simplex(n: int) -> SimplicialComplex:
    return SimplicialComplex([range(1, n + 1)], n=n)


def induced(k: SimplicialComplex, w) -> SimplicialComplex:
    """The induced subcomplex on the vertex set W: all faces contained in W."""
    w = frozenset(w)
    return SimplicialComplex([f & w for f in k.facets], n=k.n)


def _boundary_matrix(lower, upper):
    """Augmented boundary matrix from the bitmask faces `upper` (columns) to
    the faces one smaller, `lower` (rows), as integer rows.

    Dropping the vertex in sorted position p carries the sign (-1)^p; the
    empty face 0 spans degree -1, so the 0-faces map to it by augmentation.
    """
    index = {f: r for r, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, face in enumerate(upper):
        sign = 1
        rest = face
        while rest:
            low = rest & -rest
            rows[index[face ^ low]][j] = sign
            sign = -sign
            rest ^= low
    return rows


def reduced_betti(k: SimplicialComplex, i: int) -> int:
    """Reduced Betti number over Q in degree i (i >= -1; 0 below that).

    The empty complex {∅} has reduced Betti 1 in degree -1; any nonempty
    complex has 0 there.
    """
    return reduced_betti_faces(k.face_masks(), i)


def reduced_betti_faces(faces, i: int) -> int:
    """reduced_betti on a raw downward-closed face set of vertex bitmasks
    (the empty face 0 included), so that links need not be built as
    complexes.

    b̃_i = #i-faces - rank ∂_i - rank ∂_{i+1}.  rank ∂_0 and rank ∂_1 are
    counted (1 if there is a vertex; vertices minus connected components),
    so degrees -1 and 0 never eliminate and degree 1 eliminates only ∂_2.
    Each call ranks afresh; callers that revisit the same link memoize it
    themselves.  Only the faces with i, i+1 and i+2 vertices are kept, so a
    degree above the dimension costs one pass over the faces, whatever its
    size.
    """
    if i < -1:
        return 0
    groups = ([], [], [])
    for f in faces:
        offset = f.bit_count() - i
        if 0 <= offset <= 2:
            groups[offset].append(f)
    lower, cells, upper = groups
    if not cells:
        return 0
    rank_down = _boundary_rank(lower, cells, i) if i >= 0 else 0
    rank_up = _boundary_rank(cells, upper, i + 1) if upper else 0
    return len(cells) - rank_down - rank_up


def _boundary_rank(lower, upper, k: int) -> int:
    """Rank of the augmented boundary map ∂_k from the faces with k+1
    vertices, `upper` (nonempty), to those with k, `lower`."""
    if k == 0:
        return 1
    if k == 1:
        adj = edge_adjacency(lower, upper)
        return len(lower) - count_components(sum(lower), adj)
    return rank_int(_boundary_matrix(lower, upper))


def edge_adjacency(vertices, edges) -> dict:
    """The neighbour bitmask of each vertex, keyed by its single-bit mask,
    for the single-bit masks `vertices` and the two-bit masks `edges`."""
    adj = dict.fromkeys(vertices, 0)
    for e in edges:
        low = e & -e
        adj[low] |= e ^ low
        adj[e ^ low] |= low
    return adj


def count_components(mask: int, adj) -> int:
    """Connected components of the graph induced on the vertex bitmask
    `mask`, by breadth-first search on bitmasks; adj[b] is the neighbour
    bitmask of the vertex with single-bit mask b, for every b in mask.
    The empty mask has none."""
    count = 0
    while mask:
        count += 1
        frontier = mask & -mask
        while frontier:
            mask ^= frontier
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low]
                frontier ^= low
            frontier = reach & mask
    return count


def link_faces(link, w: int) -> frozenset:
    """Face set of lk_{K_W}(sigma), as bitmasks, from `link` = lk_K(sigma).

    For sigma disjoint from W the link inside the induced subcomplex K_W is
    the induced subcomplex of lk_K(sigma) on W: the faces of `link` inside
    the bitmask W.  Nothing is validated: the caller passes a link of a
    face sigma and a W disjoint from sigma.  The toric search no longer
    calls it, since it filters only the link faces it needs; it is kept
    for the level-wise test oracle and for the benchmark's tracer, which
    looks it up by name.
    """
    outside = ~w
    return frozenset(t for t in link if not t & outside)
