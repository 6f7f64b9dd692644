#!/usr/bin/env python3
"""Sweep the three symmetric families: build each capacity-achieving scheme,
verify it, and tabulate rate vs. the closed-form capacity.

Usage: python scripts/family_capacity_sweep.py [--max-k 16] [--audit]
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from icx.bounds import symmetric_capacity
from icx.errors import fraction_text
from icx.model import (
    gen_neighboring_antidotes,
    gen_neighboring_interference,
    gen_x_network,
)
from icx.scheme import dimension_audit, verify
from icx.symmetric import (
    build_antidote_scheme,
    build_interference_scheme,
    build_x_scheme,
)


def cases(max_k):
    """(row label, instance generator, scheme builder, parameters) of each
    case, in table order; the label formats the block length n."""
    for K in range(3, min(max_k, 14) + 1):
        for U in range(0, K):
            for D in range(U, K - 1 - U):  # U + D <= K - 2
                yield (f"antidotes K={K:2d} U={U} D={D}  n={{:2d}}",
                       gen_neighboring_antidotes, build_antidote_scheme, (K, U, D))
    for K in range(2, max_k + 1):
        for D in range(0, 5):
            for U in range(0, D + 1):
                if K % (D + 1) == 0 and K >= U + D + 1:
                    yield (f"interference K={K:2d} U={U} D={D}  n={{}}",
                           gen_neighboring_interference, build_interference_scheme, (K, U, D))
    for K in range(2, max_k + 1):
        for L in range(1, 5):
            if K % (L + 1) == 0 and K >= 2 * L:
                yield f"x-network    K={K:2d} L={L}    n={{:2d}}", gen_x_network, build_x_scheme, (K, L)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-k", type=int, default=16)
    ap.add_argument("--audit", action="store_true", help="include dimension-audit slack")
    args = ap.parse_args()

    t0 = time.time()
    rows = []
    for label, generate, build, params in cases(args.max_k):
        inst, scheme = generate(*params), build(*params)
        rep = verify(inst, scheme)
        cap = symmetric_capacity(inst)[0]
        rate = next(iter(set(rep.rates.values())))
        extra = ""
        if args.audit and generate is gen_neighboring_antidotes:
            extra = f" audit_slack={fraction_text(dimension_audit(inst, scheme).final_slack)}"
        rows.append(
            f"{label.format(scheme.n)}  rate={fraction_text(rate):>5} capacity={fraction_text(cap):>5}  "
            f"{'ok' if rep.valid and rate == cap else 'MISMATCH'}{extra}"
        )
    print("\n".join(rows))
    bad = sum("MISMATCH" in r for r in rows)
    print(f"\n{len(rows)} cases, {bad} mismatches, {time.time() - t0:.1f}s")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
