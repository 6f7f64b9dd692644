"""Decoder-mode verification by its definition: the independent reference
for ``verify(..., mode="decoder")``.

Destination k decodes m when U_{m,k} V_m is invertible (property 2) and
U_{m,k} V_i = 0 for every message i != m that k does not hold (property 1).
Every product is formed on its own, one per (decoder, interferer) pair, with
the field's scalar operations (``reference_galois``), so nothing here shares
code with verify's packed products beyond the scheme and report records.
"""

import reference_galois as ref
from icx.scheme import Diagnostic, VerificationReport


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
