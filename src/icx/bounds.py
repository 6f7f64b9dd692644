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

from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, log, prod
from operator import attrgetter
from typing import Mapping

from .errors import BadParams, BudgetExceeded, Record, fraction_text
from .model import Instance, check_family, normalize
from .alignment import edges

DEFAULT_CHAIN_MAX_N = 4
DEFAULT_CHAIN_BUDGET = 200_000
# Ordered destination pairs simple_bounds considers, K(K-1); 250,000 allows
# K <= 500, far above the 380 pairs of the tests and benchmark.
MAX_SIMPLE_PAIRS = 250_000


class BoundCertificate(Record):
    """sum of R_m over the terms <= rhs; kind is "simple", "chain",
    "family-formula" or "genie-chain".  Its fields are slots; copies and pickles call the constructor."""

    __slots__ = ("kind", "terms", "rhs", "provenance")

    def __init__(self, kind: str, terms: tuple, rhs: Fraction, provenance: tuple):
        # terms are kept sorted, multiplicity preserved
        super().__init__(kind, tuple(sorted(terms)), Fraction(rhs), provenance)

    def __reduce__(self):
        return type(self), self._values(self)

    def evaluate(self, rates: Mapping[int, Fraction]) -> Fraction:
        return Fraction(*self._sum(rates))

    def violated_by(self, rates: Mapping[int, Fraction]) -> bool:
        num, den = self._sum(rates)
        return num * self.rhs._denominator > self.rhs._numerator * den

    def _sum(self, rates) -> tuple:
        """The sum of the term rates as (numerator, denominator > 0), in
        integers over the lcm of the rates' denominators.  Rates other than
        Fractions, ints and subclasses included, go through Fraction() first."""
        num, den = 0, 1
        for m in self.terms:
            r = rates[m]
            if type(r) is not Fraction:
                r = Fraction(r)
            d = r._denominator  # read the slots: the properties are Python-level calls
            if den % d:
                lcm = den // gcd(den, d) * d
                num *= lcm // den
                den = lcm
            num += r._numerator * (den // d)
        return num, den

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "terms": list(self.terms),
            "rhs": fraction_text(self.rhs),
            "provenance": list(self.provenance),
        }


_set_kind, _set_terms, _set_rhs, _set_provenance = (vars(BoundCertificate)[f].__set__ for f in BoundCertificate._fields)

# simple_bounds, by its keys, and chain_bounds per chain length sort certificates of
# one kind and one rhs whose terms differ: the order of (rhs, terms, kind, provenance).
_by_terms = attrgetter("terms")


# ----------------------------------------------------------------------
# simple bounds
# ----------------------------------------------------------------------


def simple_bounds(inst: Instance) -> list:
    """One certificate per destination and per ordered destination pair.

    For a pair (k, j): the demands of k plus the demands of j that interfere
    at k sum to at most one link use.  Pairs whose second term is empty
    collapse to the single-destination bound.  Deduplicated by term multiset,
    keeping the first provenance; only the survivors are built.
    Raises BadParams, before building any, past MAX_SIMPLE_PAIRS pairs.
    """
    K = len(inst.destinations)
    if K * (K - 1) > MAX_SIMPLE_PAIRS:
        raise BadParams(f"simple bounds: {K * (K - 1)} destination pairs, more than the limit of {MAX_SIMPLE_PAIRS}")
    first = {}  # sorted terms -> provenance of the first destination or pair giving them
    for d in inst.destinations:
        first.setdefault(tuple(sorted(d.wants)), (d.id,))
    for dk in inst.destinations:
        outside = inst.interferers(dk)
        for dj in inst.destinations:
            second = dj.wants & outside  # empty for dj = dk
            if second:
                first.setdefault(tuple(sorted((*dk.wants, *second))), (dk.id, dj.id))
    return [BoundCertificate("simple", terms, 1, first[terms]) for terms in sorted(first)]  # every rhs is 1


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

    A term multiset is keyed by the product of its messages' primes (message
    m gets the m-th prime), exact by unique factorization.  Chains stop at
    min(maxN, M - 1) links, the most that M distinct messages allow.  A run
    of last links out of one tail that fits in the budget is counted in one
    step from the tail's links per message, and only its closing links are
    walked (a per-start table, filled per tail on first use); a run that does
    not fit goes link by link.  Only a new key's certificate is built, its
    terms sorted once and not re-normalized.

    Raises BadParams unless maxN >= 1 and budget >= 1, and BudgetExceeded
    (with the certificates found so far attached) when the enumeration
    exceeds `budget` visited states.
    """
    if maxN < 1 or budget < 1:
        raise BadParams(f"chain search needs maxN >= 1 and budget >= 1, got maxN={maxN}, budget={budget}")
    norm = normalize(inst, L)
    M = norm.num_messages
    prime = [1] + _primes(M)
    wants = {d.id: tuple(d.wants) for d in norm.destinations}
    wanted = {j: prod(prime[m] for m in w) for j, w in wants.items()}  # the key of j's wants
    # message a -> its links (b, realizer j, the key of the terms the link adds:
    # b and j's wants), by b and then j ascending: each edge (x < y, j) is read
    # both ways in one sorted pass, where a's links to smaller partners come first
    links = {}
    for x, y, j in sorted(edges(norm)):
        links.setdefault(x, []).append((y, j, prime[y] * wanted[j]))
        links.setdefault(y, []).append((x, j, prime[x] * wanted[j]))
    fan = {a: Counter(b for b, _, _ in out) for a, out in links.items()}  # fan[a][b]: the links a -> b
    found = [{} for _ in range(min(maxN, M) + 1)]  # found[N]: term key -> certificate of rhs N
    rhs = [Fraction(N) for N in range(len(found))]  # one rhs per chain length, shared by its certificates
    last = min(maxN, M - 1)  # a chain of N links holds N + 1 distinct messages
    visited = 0

    def ordered():
        return [cert for level in found for cert in sorted(level.values(), key=_by_terms)]

    def exceeded(begun):
        return BudgetExceeded(
            f"chain enumeration exceeded {budget} states ({sum(map(len, found))} certificates found, "
            f"{begun} of {M} start messages begun)",
            partial=ordered(),
        )

    for start in range(1, M + 1):
        visited += 1
        if visited > budget:
            raise exceeded(start - 1)
        # the chain as start, realizer, message, ..., realizer, tail; its
        # messages; the key of its terms after each message; and pending[i],
        # the links not yet tried out of its i-th message (an explicit stack,
        # so the depth is not bounded by the interpreter's recursion limit)
        chain, on_path, keys = [start], {start}, [prime[start]]
        # message -> the first destination, in instance order, desiring it without start as antidote
        closer = {m: d.id for d in reversed(norm.destinations) if start not in d.has for m in d.wants}
        closing = {}  # tail -> its links whose next message has a closer, with the closer; filled on first use
        pending = [iter(links.get(start, ()))]
        while pending:
            N = len(pending)
            level, key = found[N], keys[-1]
            if N == last and (a := chain[-1]) in links:  # a run of last links: one step if it fits the budget
                states = len(links[a]) - sum(filter(None, map(fan[a].get, on_path)))
                if visited + states <= budget:
                    visited += states
                    if a not in closing:
                        closing[a] = [(b, j, added, closer[b]) for b, j, added in links[a] if b in closer]
                    for nxt, j, added, k in closing[a]:
                        if nxt not in on_path and key * added not in level:
                            level[key * added] = _chain_certificate(chain, j, nxt, k, wants, rhs[N])
                    pending[-1] = iter(())
            for nxt, j, added in pending[-1]:
                if nxt in on_path:
                    continue
                visited += 1
                if visited > budget:
                    raise exceeded(start)
                k = closer.get(nxt)
                if k is not None and key * added not in level:
                    level[key * added] = _chain_certificate(chain, j, nxt, k, wants, rhs[N])
                if N < last:  # the last link closes each state in place and extends none
                    chain += (j, nxt)
                    on_path.add(nxt)
                    keys.append(key * added)
                    pending.append(iter(links.get(nxt, ())))
                    break
            else:
                pending.pop()
                if pending:  # retract the link whose extensions are exhausted
                    on_path.discard(chain[-1])
                    del chain[-2:]
                    keys.pop()
    return ordered()


def _chain_certificate(chain, j, nxt, k, wants, rhs):
    """The certificate of chain extended through j to nxt and closed at k, its slots set past Record.__setattr__."""
    # the terms: the messages i_0..i_N, and the wants of the realizers at odd places of the chain
    terms = [*chain[::2], nxt, *wants[j]]
    for r in chain[1::2]:
        terms += wants[r]
    terms.sort()
    cert = object.__new__(BoundCertificate)
    _set_kind(cert, "chain")
    _set_terms(cert, tuple(terms))
    _set_rhs(cert, rhs)
    _set_provenance(cert, (*chain, j, nxt, k))
    return cert


def _primes(n: int) -> list:
    """The first n primes, sieved below Rosser's bound p_n < n (ln n + ln ln n), n >= 6."""
    limit = 16 if n < 6 else int(n * (log(n) + log(log(n)))) + 2
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]][:n]


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
    params = check_family(inst)
    kind = inst.family.kind
    if kind == "neighboring-antidotes":
        K, U, D = params
        A = U + D
        value = Fraction(1) if A == K - 1 else Fraction(U + 1, K - A + 2 * U)
        cert = BoundCertificate("family-formula", range(1, K + 1), K * value, ("neighboring-antidotes", K, U, D))
        return value, cert
    if kind == "neighboring-interference":
        K, U, D = params
        cert = BoundCertificate("genie-chain", range(1, D + 2), 1, ("neighboring-interference", K, U, D, 1))
        return Fraction(1, D + 1), cert
    K, L = params  # x-network
    cert = BoundCertificate("genie-chain", x_outer_bound_messages(K, L), 1, ("x-network", K, L, 1))
    return Fraction(2, L * (L + 1)), cert
