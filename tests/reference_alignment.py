"""The alignment partition and the feasibility witness as all-pairs loops,
kept as a reference.

``icx.alignment`` merges each destination's interferers into one group and
finds each member's first conflict in one pass over the destinations.  These
loops list every edge (i, j, k), union its two ends, and try every ordered
pair of same-subset messages against every destination in turn.  Both must
give the same verdict JSON, edges included.
"""

from icx.errors import NotNormalized
from icx.model import normalize


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def partition(inst):
    """(L, edges, subsets) of an instance with uniform demand size."""
    sizes = inst.demand_sizes()
    if len(sizes) != 1:
        raise NotNormalized(f"demand sizes differ: {sorted(sizes)}")
    L = sizes.pop()
    edges = set()
    uf = _UnionFind(range(1, inst.num_messages + 1))
    for d in inst.destinations:
        outside = sorted(inst.interferers(d))
        for a in range(len(outside)):
            for b in range(a + 1, len(outside)):
                edges.add((outside[a], outside[b], d.id))
                uf.union(outside[a], outside[b])
    groups = {}
    for m in range(1, inst.num_messages + 1):
        groups.setdefault(uf.find(m), set()).add(m)
    subsets = tuple(frozenset(g) for g in sorted(groups.values(), key=min))
    return L, frozenset(edges), subsets


def check_feasibility_json(inst, L):
    """The verdict JSON of rate 1/(L+1): the first conflict in (subset index,
    i, j, k) order, tried pair by pair."""
    norm = normalize(inst, L)
    L, edges, subsets = partition(norm)
    out = {
        "feasible": True,
        "partition": {
            "L": L,
            "Z": len(subsets),
            "edges": sorted([i, j, k] for (i, j, k) in edges),
            "subsets": [sorted(s) for s in subsets],
        },
    }
    for sub in subsets:
        if len(sub) < 2:
            continue
        members = sorted(sub)
        for i in members:
            for j in members:
                if i == j:
                    continue
                for d in norm.destinations:
                    if j in d.wants and i not in d.has:
                        return dict(out, feasible=False, witness=[i, j, d.id])
    return out
