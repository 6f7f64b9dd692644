"""Machine-checkable outer-bound certificates.

Three certificate sources:

* simple bounds: a destination pair (k, j) where k, once it has decoded its
  own demands, knows everything j knows, so it can also decode the messages
  of j that interfere at k; the combined rates fit in one link use.
* alignment-chain bounds: a chain of alignment relations whose endpoints
  collide sums the chain messages plus the desired sets of the realizing
  destinations against the chain length.
* family formulas and genie decode chains for the tagged symmetric families.

Certificates assert sum_{m in terms} R_m <= rhs with term multiplicity
preserved (a message id may legitimately appear twice).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping

from .errors import BadParams, BudgetExceeded, Record
from .model import Instance, check_family, normalize
from .alignment import partition

DEFAULT_CHAIN_MAX_N = 4
DEFAULT_CHAIN_BUDGET = 200_000
# Ordered destination pairs simple_bounds considers, K(K-1); 250,000 allows
# K <= 500, far above the 380 pairs of the tests and benchmark.
MAX_SIMPLE_PAIRS = 250_000


class BoundCertificate(Record):
    """sum of R_m over the terms <= rhs; kind is "simple", "chain",
    "family-formula" or "genie-chain"."""

    _fields = ("kind", "terms", "rhs", "provenance")

    def __init__(self, kind: str, terms: tuple, rhs: Fraction, provenance: tuple):
        # terms are kept sorted, multiplicity preserved
        super().__init__(kind, tuple(sorted(terms)), Fraction(rhs), provenance)

    def evaluate(self, rates: Mapping[int, Fraction]) -> Fraction:
        return Fraction(*self._sum(rates))

    def violated_by(self, rates: Mapping[int, Fraction]) -> bool:
        num, den = self._sum(rates)
        return num * self.rhs.denominator > self.rhs.numerator * den

    def _sum(self, rates) -> tuple:
        """The sum of the term rates as (numerator, denominator > 0), in
        integers over the lcm of the rates' denominators.  Rates other than
        ints and Fractions go through Fraction() first."""
        num, den = 0, 1
        for m in self.terms:
            r = rates[m]
            if not isinstance(r, (int, Fraction)):
                r = Fraction(r)
            d = r.denominator
            if den % d:
                lcm = den // gcd(den, d) * d
                num *= lcm // den
                den = lcm
            num += r.numerator * (den // d)
        return num, den

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "terms": list(self.terms),
            "rhs": f"{self.rhs.numerator}/{self.rhs.denominator}",
            "provenance": list(self.provenance),
        }


def _sort_key(cert: BoundCertificate):
    return (cert.rhs, cert.terms, cert.kind, cert.provenance)


# ----------------------------------------------------------------------
# simple bounds
# ----------------------------------------------------------------------


def simple_bounds(inst: Instance) -> list:
    """One certificate per destination and per ordered destination pair.

    For a pair (k, j): the demands of k plus the demands of j that interfere
    at k sum to at most one link use.  Pairs whose second term is empty
    collapse to the single-destination bound.  Deduplicated by term multiset.
    Raises BadParams, before building any, past MAX_SIMPLE_PAIRS pairs.
    """
    K = len(inst.destinations)
    if K * (K - 1) > MAX_SIMPLE_PAIRS:
        raise BadParams(f"simple bounds: {K * (K - 1)} destination pairs, more than the limit of {MAX_SIMPLE_PAIRS}")
    certs = {}
    for d in inst.destinations:
        cert = BoundCertificate("simple", tuple(sorted(d.wants)), Fraction(1), (d.id,))
        certs.setdefault((cert.terms, cert.rhs), cert)
    for dk in inst.destinations:
        outside = inst.interferers(dk)
        for dj in inst.destinations:
            if dj.id == dk.id:
                continue
            second = sorted(dj.wants & outside)
            if not second:
                continue
            terms = tuple(sorted(dk.wants)) + tuple(second)
            cert = BoundCertificate("simple", terms, Fraction(1), (dk.id, dj.id))
            certs.setdefault((cert.terms, cert.rhs), cert)
    return sorted(certs.values(), key=_sort_key)


# ----------------------------------------------------------------------
# alignment-chain bounds
# ----------------------------------------------------------------------


def chain_bounds(
    inst: Instance,
    L: int,
    maxN: int = DEFAULT_CHAIN_MAX_N,
    budget: int = DEFAULT_CHAIN_BUDGET,
) -> list:
    """Certificates from alignment chains of length 1..maxN.

    A chain i_0 <-> i_1 <-> ... <-> i_N (distinct messages, each link
    realized at some destination) whose tail is desired at a destination k
    missing the head as an antidote bounds the sum of the chain messages and
    of the realizing destinations' demand sets by N.  Destination demand sets
    enter with multiplicity; the same message may appear twice in the terms.

    The search is depth first: start messages in increasing order, then
    neighbours in increasing order, each link through its realizing
    destinations in increasing order.  Every path, the single-message
    starts included, counts as one visited state.  Of the certificates with
    equal terms and rhs, the first met is kept, with the first closing
    destination k in instance order.

    Raises BadParams unless maxN >= 1 and budget >= 1, and BudgetExceeded
    (with the certificates found so far attached) when the enumeration
    exceeds `budget` visited states.
    """
    if maxN < 1 or budget < 1:
        raise BadParams(f"chain search needs maxN >= 1 and budget >= 1, got maxN={maxN}, budget={budget}")
    norm = normalize(inst, L)
    wants = {d.id: tuple(sorted(d.wants)) for d in norm.destinations}
    # message a -> its links (b, realizer j, the terms the link adds: b and
    # j's sorted wants), by b and then j ascending: each edge read both ways
    links = {}
    for a, b, j in sorted(t for x, y, j in partition(norm).edges for t in ((x, y, j), (y, x, j))):
        links.setdefault(a, []).append((b, j, (b,) + wants[j]))
    width = L + 1  # terms per link: every destination of norm desires L messages

    M = norm.num_messages
    certs = {}  # (terms, N) -> certificate
    visited = 0

    def exceeded(begun):
        return BudgetExceeded(
            f"chain enumeration exceeded {budget} states ({len(certs)} certificates found, "
            f"{begun} of {M} start messages begun)",
            partial=_ordered(certs),
        )

    for start in range(1, M + 1):
        visited += 1
        if visited > budget:
            raise exceeded(start - 1)
        # the chain as start, realizer, message, ..., realizer, tail; its
        # messages; its term multiset; and pending[i], the links not yet
        # tried out of its i-th message (an explicit stack, so the depth is
        # not bounded by the interpreter's recursion limit)
        chain, on_path, terms = [start], {start}, [start]
        # message -> the first destination, in instance order, desiring it without start as antidote
        closer = {m: d.id for d in reversed(norm.destinations) if start not in d.has for m in d.wants}
        pending = [iter(links.get(start, ()))]
        while pending:
            N = len(pending)
            for nxt, j, added in pending[-1]:
                if nxt in on_path:
                    continue
                visited += 1
                if visited > budget:
                    raise exceeded(start)
                chain += (j, nxt)
                terms += added
                k = closer.get(nxt)
                if k is not None:
                    key = (tuple(sorted(terms)), N)
                    if key not in certs:
                        cert = BoundCertificate("chain", key[0], N, tuple(chain) + (k,))
                        certs[(cert.terms, N)] = cert
                if N < maxN:
                    on_path.add(nxt)
                    pending.append(iter(links.get(nxt, ())))
                    break
                del terms[-width:]
                del chain[-2:]
            else:
                pending.pop()
                if pending:  # retract the link whose extensions are exhausted
                    on_path.discard(chain[-1])
                    del terms[-width:]
                    del chain[-2:]
    return _ordered(certs)


def _ordered(certs: dict) -> list:
    """Chain certificates in _sort_key order: the kind is always "chain" and
    (rhs, terms) is unique, so sorting the (terms, N) keys by (N, terms)
    gives the same order without comparing Fractions."""
    return [certs[key] for key in sorted(certs, key=lambda key: (key[1], key[0]))]


# ----------------------------------------------------------------------
# symmetric family capacities
# ----------------------------------------------------------------------


def x_outer_bound_messages(K: int, L: int) -> list:
    """The L(L+1)/2 messages one genie-aided destination decodes in sequence:
    at offset row t of destination 1's window, the last t+1 messages."""
    M = K * L
    out = []
    for t in range(L):
        for c in range(L - t, L + 1):
            out.append((t * L + c - 1) % M + 1)
    return sorted(out)


def symmetric_capacity(inst: Instance) -> tuple:
    """Per-message capacity of a tagged family instance, with its certificate.

    Returns (capacity as Fraction, BoundCertificate).  The certificate for
    neighboring interference is the decode-chain window of D+1 consecutive
    messages; for the X family it is the L(L+1)/2-message genie set; for
    neighboring antidotes it is the all-messages sum bound K * C.  Raises
    UnsupportedFamily when the instance is untagged or is not the family its
    tag names.
    """
    check_family(inst)
    fam = inst.family
    if fam.kind == "neighboring-antidotes":
        K, U, D = fam.param("K"), fam.param("U"), fam.param("D")
        A = U + D
        value = Fraction(1) if A == K - 1 else Fraction(U + 1, K - A + 2 * U)
        cert = BoundCertificate(
            "family-formula",
            tuple(range(1, K + 1)),
            Fraction(K) * value,
            ("neighboring-antidotes", K, U, D),
        )
        return value, cert
    if fam.kind == "neighboring-interference":
        K, U, D = fam.param("K"), fam.param("U"), fam.param("D")
        value = Fraction(1, D + 1)
        cert = BoundCertificate(
            "genie-chain",
            tuple(range(1, D + 2)),
            Fraction(1),
            ("neighboring-interference", K, U, D, 1),
        )
        return value, cert
    K, L = fam.param("K"), fam.param("L")  # x-network
    value = Fraction(2, L * (L + 1))
    cert = BoundCertificate(
        "genie-chain",
        tuple(x_outer_bound_messages(K, L)),
        Fraction(1),
        ("x-network", K, L, 1),
    )
    return value, cert
