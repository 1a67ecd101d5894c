"""toric-sweep: resonance of random toric complexes, then cover queries.

The 2^n subset sweep, `reduced_betti_faces` with its cache and `rank_int`
do almost all the work; `aomoto`, `laurent` and `arrangements` stay idle.
The omega queries afterwards read the cached loci of the same complexes.

The shape of each complex is drawn once per size from a fixed generator
seed; the run seed relabels the vertices of the complexes on 9-11 vertices
and draws the query planes.  The cost of the sweep depends on the shape,
so this keeps run_s from moving with the seed while the inputs still
change.
"""

import random

from jumploci import qlinalg, toric
from jumploci.simplicial import SimplicialComplex

import oracle
from gen import full_rank_rows, random_complex

# (n, [(degree, depth), ...], omega queries); the sweep doubles in cost with
# each vertex, so the larger complexes get fewer pairs.  Queries stay on the
# complexes whose degree-0 locus (first needed by a query) is cheap.
SWEEPS = (
    (9, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)], 120),
    (10, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)], 120),
    (11, [(1, 1), (1, 2), (2, 1), (3, 1)], 120),
    (12, [(1, 1), (2, 1)], 0),
    (13, [(1, 1)], 0),
)
SAMPLED_SUBSETS = 8
SHAPE_SEED = 2011
# The sweeps of the largest complexes set largest_op_s, and their cost moves
# by up to 15% with the vertex labels alone; those complexes keep the labels
# of their fixed shape.
FIXED_LABELS_FROM = 12


class Workload:
    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.rng = random.Random(seed + 1)
        self.ops = []
        self.kinds = []
        for n, pairs, queries in SWEEPS:
            label = list(range(1, n + 1))
            if n < FIXED_LABELS_FROM:
                rng.shuffle(label)
            shape = random_complex(random.Random(SHAPE_SEED + n), n)
            k = SimplicialComplex([[label[v - 1] for v in f] for f in shape], n=n)
            for i, d in pairs:
                # depth 1 through toric_resonance, depth 2 through the toric_cv alias
                name = "toric_resonance" if d == 1 else "toric_cv"
                self._add(("sweep", k, i, d), f"{name} n={n} i={i} d={d}",
                          lambda k=k, i=i, d=d, name=name: getattr(toric, name)(k, i, d))
            degrees = sorted(i for i, d in pairs if d == 1)
            for q in range(queries):
                i = degrees[q % len(degrees)]
                r = 1 + q % 4
                rows = full_rank_rows(rng, n, r)
                self._add(("omega", k, i, r, rows), f"toric_omega_member n={n} i={i} r={r}",
                          lambda k=k, i=i, r=r, rows=rows, n=n: toric.toric_omega_member(
                              k, i, r, qlinalg.RationalSubspace.span(n, rows)))

    def _add(self, kind, label, fn):
        self.kinds.append(kind)
        self.ops.append((label, fn))

    def check(self, results):
        bad = []
        hom = oracle.Homology()
        loci = {}
        for idx, (kind, (value, exc)) in enumerate(zip(self.kinds, results)):
            if kind[0] != "sweep":
                continue
            if exc is not None:
                bad.append((idx, "wrong", f"raised {exc!r}"))
                continue
            _, k, i, d = kind
            loci[(k, i, d)] = value
            reason = self._check_sweep(hom, k, i, d, value)
            if reason:
                bad.append((idx, "wrong", reason))
        for (k, i, d), value in loci.items():
            if d == 2 and (k, i, 1) in loci:
                upper = loci[(k, i, 1)].subsets
                if not all(any(set(w) <= set(u) for u in upper) for w in value.subsets):
                    bad.append((None, "wrong", f"depth-2 locus not inside depth 1 (n={k.n}, i={i})"))
        for idx, (kind, (value, exc)) in enumerate(zip(self.kinds, results)):
            if kind[0] != "omega":
                continue
            if exc is not None:
                bad.append((idx, "wrong", f"raised {exc!r}"))
                continue
            _, k, i, r, rows = kind
            if any((k, j, 1) not in loci for j in range(1, i + 1)):
                bad.append((idx, "wrong", "no checked locus to compare against"))
                continue
            # degree 0 contributes only the origin (every vertex is a face)
            pieces = [w for j in range(1, i + 1) for w in loci[(k, j, 1)].subsets]
            expected = not any(_meets_coordinate(rows, w, k.n) for w in pieces)
            if value is not expected:
                bad.append((idx, "wrong", f"member={value}, oracle says {expected}"))
        return bad

    def _check_sweep(self, hom, k, i, d, arr):
        faces = k.faces
        if i == 1 and d == 1:
            graph_route = toric.raag_r1(toric.Graph.from_one_skeleton(k))
            if (arr.subsets, arr.contains_origin) != (graph_route.subsets, graph_route.contains_origin):
                return "degree-1 resonance differs from raag_r1 of the 1-skeleton"
        for w in arr.subsets:
            if not oracle.toric_passes(hom, faces, frozenset(w), i, d):
                return f"reported subset {w} fails the homology test"
        if arr.contains_origin != oracle.toric_passes(hom, faces, frozenset(), i, d):
            return "origin flag disagrees with the homology test"
        for _ in range(SAMPLED_SUBSETS):
            w = frozenset(v for v in range(1, k.n + 1) if self.rng.random() < 0.5)
            if w and oracle.toric_passes(hom, faces, w, i, d) and not any(w <= set(u) for u in arr.subsets):
                return f"subset {sorted(w)} passes but lies in no reported piece"
        return None


def _meets_coordinate(rows, w, n):
    """dim(P ∩ Q^W) >= 1 for P spanned by rows: rank of the off-W columns drops."""
    outside = [j for j in range(n) if j + 1 not in w]
    return oracle.rank([[row[j] for j in outside] for row in rows]) < len(rows)
