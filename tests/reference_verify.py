"""Verification by its definitions: the independent references for
``verify(..., mode="decoder")``, ``verify(..., mode="rank")`` and
``synthesize_decoders``.

Destination k decodes m when U_{m,k} V_m is invertible (property 2) and
U_{m,k} V_i = 0 for every message i != m that k does not hold (property 1).
Without combiners, k resolves what it wants when the desired columns V_des
are independent and rank [V_int | V_des] = rank V_int + rank V_des, V_int
the columns of the messages k neither wants nor holds.  A synthesized
U_{m,k} is made of rows of the left null space of every other column k does
not hold.  Every product, rank and null space is formed on its own with the
field's scalar operations (``reference_galois``), so nothing here shares
code with the packed products or reduced forms of verify and synthesis
beyond the scheme and report records.
"""

import reference_galois as ref
from icx.errors import NoDecoderExists
from icx.galois import Matrix
from icx.scheme import Diagnostic, LinearScheme, VerificationReport


def verify_decoder(inst, scheme):
    """The report decoder mode gives: diagnostics in destination order,
    then desired message order, each decoder's property2 before its
    property1 per interferer in id order."""
    f = scheme.field
    diags = []
    for d in inst.destinations:
        for m in sorted(d.wants):
            u = scheme.U.get((m, d.id))
            if u is None:
                diags.append(Diagnostic("missing-decoder", d.id, message=m))
                continue
            streams = scheme.stream_count(m)
            own = ref.matmul(f, u.row_list(), scheme.V[m].row_list(), streams)
            if ref.rank(f, own, streams) != streams:
                diags.append(Diagnostic("property2", d.id, message=m))
            for i in scheme.message_ids():
                if i == m or i in d.has:
                    continue
                leak = ref.matmul(f, u.row_list(), scheme.V[i].row_list(), scheme.stream_count(i))
                if any(any(row) for row in leak):
                    diags.append(Diagnostic("property1", d.id, message=m, interferer=i))
    return VerificationReport(not diags, "decoder", tuple(diags), scheme.rates())


def verify_rank(inst, scheme):
    """The report rank mode gives: per destination in order, desired-rank
    when V_des's columns are dependent, then resolvability when rank
    [V_int | V_des] falls short of rank V_int + rank V_des.  Each rank is
    that of the columns, eliminated as the rows of the transpose."""
    f = scheme.field

    def columns(ids):
        return [list(scheme.V[m].col(j)) for m in sorted(ids) for j in range(scheme.stream_count(m))]

    diags = []
    for d in inst.destinations:
        des, inter = columns(d.wants), columns(inst.interferers(d))
        rank_des = ref.rank(f, des, scheme.n)
        if rank_des != len(des):
            diags.append(Diagnostic("desired-rank", d.id))
        if ref.rank(f, inter + des, scheme.n) != ref.rank(f, inter, scheme.n) + rank_des:
            diags.append(Diagnostic("resolvability", d.id))
    return VerificationReport(not diags, "rank", tuple(diags), scheme.rates())


def synthesize_decoders(inst, scheme):
    """The scheme ``synthesize_decoders`` gives, or its ``NoDecoderExists``:
    per destination in order and wanted message in id order, the basis of
    the left null space of the columns of every other message the
    destination does not hold, and of its rows, in order, each that raises
    the rank of the chosen rows times V_m, until there are V_m's streams."""
    f, n = scheme.field, scheme.n
    U = {}
    for d in inst.destinations:
        for m in sorted(d.wants):
            others = [i for i in scheme.message_ids() if i != m and i not in d.has]
            cols = [list(scheme.V[i].col(j)) for i in others for j in range(scheme.stream_count(i))]
            ann = ref.left_nullspace(f, ref.transpose(cols, n), len(cols))
            streams = scheme.stream_count(m)
            probe = ref.matmul(f, ann, scheme.V[m].row_list(), streams)
            chosen = []
            for r, row in enumerate(probe):
                if len(chosen) < streams and ref.rank(f, [probe[c] for c in chosen] + [row], streams) > len(chosen):
                    chosen.append(r)
            if len(chosen) < streams:
                raise NoDecoderExists(f"no zero-forcing decoder for message {m} at destination {d.id}")
            U[(m, d.id)] = Matrix(f, len(chosen), n, tuple(e for r in chosen for e in ann[r]))
    return LinearScheme(f, n, scheme.V, U)
