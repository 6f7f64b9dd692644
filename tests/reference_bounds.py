"""Naive simple bounds, chain-bound search and Fraction evaluation: the
reference for bounds.

``simple_bounds`` builds a certificate for every destination and every pair
and keeps the first of each term multiset.  ``chain_bounds`` is the plain
depth-first search: every extended path copies its lists, and every closing
destination builds a certificate that is then deduplicated by its (terms,
rhs) key.  ``evaluate`` sums the term rates as Fractions.  Nothing here
shares the search or the arithmetic of ``icx.bounds``; only the certificate
class and the edge list are reused.
"""

from fractions import Fraction

from icx.alignment import edges
from icx.bounds import BoundCertificate
from icx.errors import BudgetExceeded
from icx.model import normalize


def _sort_key(cert):
    return (cert.rhs, cert.terms, cert.kind, cert.provenance)


def simple_bounds(inst):
    certs = {}  # terms -> the first certificate with them
    for d in inst.destinations:
        cert = BoundCertificate("simple", d.wants, 1, (d.id,))
        certs.setdefault(cert.terms, cert)
    for dk in inst.destinations:
        outside = inst.interferers(dk)
        for dj in inst.destinations:
            second = dj.wants & outside
            if second:
                cert = BoundCertificate("simple", (*dk.wants, *second), 1, (dk.id, dj.id))
                certs.setdefault(cert.terms, cert)
    return sorted(certs.values(), key=_sort_key)


def evaluate(cert, rates):
    return sum((Fraction(rates[m]) for m in cert.terms), Fraction(0))


def violated_by(cert, rates):
    return evaluate(cert, rates) > cert.rhs


def chain_bounds(inst, L, maxN, budget):
    norm = normalize(inst, L)
    by_pair = {}
    for (a, b, k) in edges(norm):
        by_pair.setdefault((a, b), []).append(k)
        by_pair.setdefault((b, a), []).append(k)
    for dests in by_pair.values():
        dests.sort()
    adjacency = {}
    for (a, b) in by_pair:
        adjacency.setdefault(a, set()).add(b)

    dest_by_id = {d.id: d for d in norm.destinations}
    terminals = {}  # message -> list of destination ids desiring it
    for d in norm.destinations:
        for m in d.wants:
            terminals.setdefault(m, []).append(d.id)

    certs = {}
    visited = 0

    def emit(path, links):
        head = path[0]
        tail = path[-1]
        for k in terminals.get(tail, ()):
            if head in dest_by_id[k].has:
                continue
            terms = list(path)
            for j in links:
                terms.extend(sorted(dest_by_id[j].wants))
            cert = BoundCertificate(
                "chain", tuple(terms), Fraction(len(path) - 1), tuple(path[:1]) + tuple(
                    x for pair in zip(links, path[1:]) for x in pair
                ) + (k,),
            )
            certs.setdefault((cert.terms, cert.rhs), cert)

    def extend(path, links):
        nonlocal visited
        visited += 1
        if visited > budget:
            raise BudgetExceeded(
                f"chain enumeration exceeded {budget} states",
                partial=sorted(certs.values(), key=_sort_key),
            )
        if len(path) > 1:
            emit(path, links)
        if len(path) - 1 >= maxN:
            return
        tail = path[-1]
        for nxt in sorted(adjacency.get(tail, ())):
            if nxt in path:
                continue
            for j in by_pair[(tail, nxt)]:
                extend(path + [nxt], links + [j])

    for start in range(1, norm.num_messages + 1):
        extend([start], [])
    return sorted(certs.values(), key=_sort_key)
