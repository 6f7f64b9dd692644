"""Naive per-tuple simulation: the independent reference for icx's simulators.

Each message tuple is encoded and decoded on its own with the field's scalar
operations, so nothing here shares code with the closed-form simulator
beyond the scheme and decoder objects.
"""

import random

from icx.errors import NoDecoderExists
from icx.scheme import synthesize_decoders


def simulate(inst, scheme, tuples):
    """Check tuples (one digit per stream, messages in id order) one by one.

    Decoders are the scheme's combiners or, for V-only schemes, those of
    ``synthesize_decoders``.  When synthesis fails, a tuple fails at a
    destination when an earlier tuple had the same broadcast word and the
    same antidote symbols there but different desired symbols.  Returns
    (ok, tuples_checked, counterexample, destination, message).
    """
    f = scheme.field
    streams = [(m, j) for m in scheme.message_ids() for j in range(scheme.stream_count(m))]
    pos = {m: [s for s, (i, _) in enumerate(streams) if i == m] for m in scheme.V}
    try:
        working = scheme if scheme.U is not None else synthesize_decoders(inst, scheme)
    except NoDecoderExists:
        decoders = None
    else:
        decoders = {}
        for d in inst.destinations:
            for m in d.wants:
                u = working.U[(m, d.id)]
                decoders[(m, d.id)] = (u @ scheme.V[m]).inverse() @ u
    seen = {}  # (destination, encoded word, antidote digits) -> earliest tuple
    checked = 0
    for digits in tuples:
        checked += 1
        word = [0] * scheme.n
        for (m, j), x in zip(streams, digits):
            word = [f.add(a, f.mul(x, b)) for a, b in zip(word, scheme.V[m].col(j))]
        for d in inst.destinations:
            if decoders is None:
                side = tuple(digits[s] for i in sorted(d.has) for s in pos[i])
                earlier = seen.setdefault((d.id, tuple(word), side), digits)
            else:
                cancelled = list(word)
                for s in (s for i in sorted(d.has) for s in pos[i]):
                    m, j = streams[s]
                    col = scheme.V[m].col(j)
                    cancelled = [f.add(a, f.neg(f.mul(digits[s], b))) for a, b in zip(cancelled, col)]
            for m in sorted(d.wants):
                want = [digits[s] for s in pos[m]]
                if decoders is None:
                    got = [earlier[s] for s in pos[m]]
                else:
                    dec = decoders[(m, d.id)]
                    got = [_dot(f, dec.row(r), cancelled) for r in range(dec.rows)]
                if got != want:
                    counterexample = {}
                    for (i, _), x in zip(streams, digits):
                        counterexample.setdefault(i, []).append(x)
                    return False, checked, {i: tuple(v) for i, v in counterexample.items()}, d.id, m
    return True, checked, None, None, None


def _dot(f, row, vec):
    acc = 0
    for a, b in zip(row, vec):
        acc = f.add(acc, f.mul(a, b))
    return acc


def lexicographic_tuples(scheme):
    """Every message tuple, message 1's first stream the most significant digit.

    An odometer, so a field of 2^31 elements costs nothing up front.
    """
    total = sum(scheme.stream_count(m) for m in scheme.V)
    top = scheme.field.order - 1
    digits = [0] * total
    while True:
        yield tuple(digits)
        s = total - 1
        while s >= 0 and digits[s] == top:
            digits[s] = 0
            s -= 1
        if s < 0:
            return
        digits[s] += 1


def sampled_tuples(scheme, count, seed=0):
    """The tuples simulate_sampled draws: each stream's digit in turn, tuple after tuple."""
    total = sum(scheme.stream_count(m) for m in scheme.V)
    rnd = random.Random(seed)
    for _ in range(count):
        yield tuple(rnd.randrange(scheme.field.order) for _ in range(total))


def encode(scheme, digits):
    """The broadcast word of a tuple, one field operation at a time."""
    f = scheme.field
    streams = [(m, j) for m in scheme.message_ids() for j in range(scheme.stream_count(m))]
    word = [0] * scheme.n
    for (m, j), x in zip(streams, digits):
        word = [f.add(a, f.mul(x, b)) for a, b in zip(word, scheme.V[m].col(j))]
    return tuple(word)


def simulate_least(inst, scheme, tuples):
    """Check tuples of a V-only scheme by definition, decodable or not.

    Destination k decodes a tuple as the first tuple in lexicographic order
    with the same broadcast word and antidote symbols there would have it, so
    a tuple fails at k when that earlier tuple has different desired symbols.
    Every tuple of the space is scanned to find it, so keep q^streams small.
    Returns what ``simulate`` returns.
    """
    streams = [(m, j) for m in scheme.message_ids() for j in range(scheme.stream_count(m))]
    pos = {m: [s for s, (i, _) in enumerate(streams) if i == m] for m in scheme.V}

    def key(d, digits):
        return d.id, encode(scheme, digits), tuple(digits[s] for i in sorted(d.has) for s in pos[i])

    first = {}
    for digits in lexicographic_tuples(scheme):
        for d in inst.destinations:
            first.setdefault(key(d, digits), digits)
    checked = 0
    for digits in tuples:
        checked += 1
        for d in inst.destinations:
            earlier = first[key(d, digits)]
            for m in sorted(d.wants):
                if any(earlier[s] != digits[s] for s in pos[m]):
                    counterexample = {}
                    for (i, _), x in zip(streams, digits):
                        counterexample.setdefault(i, []).append(x)
                    return False, checked, {i: tuple(v) for i, v in counterexample.items()}, d.id, m
    return True, checked, None, None, None
