#!/usr/bin/env python3
"""Randomized agreement experiment: feasibility decision vs. constructions
vs. chain certificates.

For each random instance with uniform demand size L: if the symmetric rate
1/(L+1) is declared feasible, the scalar construction must verify and
survive exhaustive simulation; if infeasible, some alignment chain
certificate must be violated by the uniform 1/(L+1) rate vector.

Usage: python scripts/feasibility_agreement.py [--count 500] [--seed 1]
"""

import argparse
import random
import sys
from fractions import Fraction

sys.path.insert(0, "src")

from icx.alignment import build_scalar_scheme, check_feasibility
from icx.bounds import chain_bounds
from icx.model import Destination, Instance, normalize
from icx.scheme import simulate_exhaustive, verify


def random_instance(rnd, max_m=6, max_k=6):
    while True:
        M = rnd.randrange(2, max_m + 1)
        K = rnd.randrange(1, max_k + 1)
        L = rnd.choice([1, 1, 2])
        if M < L:
            continue
        dests = []
        for k in range(1, K + 1):
            wants = set(rnd.sample(range(1, M + 1), L))
            rest = [m for m in range(1, M + 1) if m not in wants]
            has = {m for m in rest if rnd.random() < 0.45}
            dests.append(Destination(k, frozenset(wants), frozenset(has)))
        return Instance(M, tuple(dests)), L


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rnd = random.Random(args.seed)
    feasible = infeasible = simulated = disagreements = 0
    for _ in range(args.count):
        inst, L = random_instance(rnd)
        verdict = check_feasibility(inst, L)
        uniform = {m: Fraction(1, L + 1) for m in range(1, inst.num_messages + 1)}
        if verdict.feasible:
            feasible += 1
            scheme = build_scalar_scheme(inst, L)
            if not verify(normalize(inst, L), scheme).valid:
                disagreements += 1
                continue
            simulated += 1
            if not simulate_exhaustive(normalize(inst, L), scheme).ok:
                disagreements += 1
        else:
            infeasible += 1
            certs = chain_bounds(inst, L, maxN=inst.num_messages)
            if not any(c.violated_by(uniform) for c in certs):
                disagreements += 1

    print(
        f"{args.count} instances: {feasible} feasible ({simulated} also simulated), "
        f"{infeasible} infeasible, {disagreements} disagreements"
    )
    sys.exit(1 if disagreements else 0)


if __name__ == "__main__":
    main()
