"""Finite simplicial complexes on vertex sets {1..n}, with exact homology.

A complex is stored by its facets (maximal faces); the face set is the
downward closure and always contains the empty face.  The complex with no
facets is the empty complex {∅}: its reduced Betti number in degree -1 is 1.
Reduced Betti numbers come from the ranks of the augmented boundary maps on
faces encoded as vertex bitmasks (bit v-1 for vertex v).  The two lowest
ranks are combinatorial: the augmentation has rank 1 when there is a vertex,
and the vertex-edge map has rank V - c for c connected components.  Only the
higher boundary matrices go through exact integer elimination.  Nothing is
cached here: the toric search keeps its own memo for the duration of one
call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .qlinalg import rank_int


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
                if not isinstance(v, int) or v < 1:
                    raise ValueError(f"vertices must be positive integers, got {v!r}")
        n = self.n
        if n is None:
            n = max((max(f) for f in fs if f), default=0)
        else:
            for f in fs:
                if f and max(f) > n:
                    raise ValueError(f"facet {sorted(f)} exceeds vertex universe 1..{n}")
        # keep only maximal faces, canonically ordered
        maximal = [f for f in fs if not any(f < g for g in fs)]
        uniq = sorted(set(maximal) - {frozenset()}, key=lambda f: (len(f), sorted(f)))
        faces = {frozenset()}
        for f in uniq:
            for k in range(1, len(f) + 1):
                faces.update(frozenset(c) for c in itertools.combinations(f, k))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facets", tuple(uniq))
        object.__setattr__(self, "faces", frozenset(faces))

    def vertices(self) -> tuple:
        return tuple(sorted(set().union(*self.facets))) if self.facets else ()

    def has_face(self, sigma) -> bool:
        return frozenset(sigma) in self.faces

    def dim(self) -> int:
        """Dimension of the complex; -1 for the empty complex."""
        return max((len(f) for f in self.facets), default=0) - 1

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
    themselves.
    """
    if i < -1:
        return 0
    by_size = [[] for _ in range(i + 3)]
    for f in faces:
        size = f.bit_count()
        if size <= i + 2:
            by_size[size].append(f)
    cells = by_size[i + 1]
    if not cells:
        return 0
    rank_down = _boundary_rank(by_size, i) if i >= 0 else 0
    rank_up = _boundary_rank(by_size, i + 1) if by_size[i + 2] else 0
    return len(cells) - rank_down - rank_up


def _boundary_rank(by_size, k: int) -> int:
    """Rank of the augmented boundary map ∂_k from the faces with k+1
    vertices, by_size[k + 1], to those with k; by_size[k + 1] is nonempty."""
    if k == 0:
        return 1
    if k == 1:
        return len(by_size[1]) - _components(by_size[1], by_size[2])
    return rank_int(_boundary_matrix(by_size[k], by_size[k + 1]))


def _components(vertices, edges) -> int:
    """Connected components of the graph on the vertex bitmasks `vertices`
    with the two-bit masks `edges`, by breadth-first search on bitmasks."""
    adj = dict.fromkeys(vertices, 0)
    for e in edges:
        low = e & -e
        adj[low] |= e ^ low
        adj[e ^ low] |= low
    unseen = sum(vertices)
    count = 0
    while unseen:
        count += 1
        frontier = unseen & -unseen
        while frontier:
            unseen ^= frontier
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low]
                frontier ^= low
            frontier = reach & unseen
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


def join(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; the second complex's vertices are shifted past n1."""
    shift = k1.n
    f1s = k1.facets or (frozenset(),)
    f2s = k2.facets or (frozenset(),)
    facets = [
        f1 | frozenset(v + shift for v in f2)
        for f1 in f1s
        for f2 in f2s
    ]
    return SimplicialComplex(facets, n=k1.n + k2.n)
