#!/usr/bin/env python3
"""Reproduce the scalar/vector separation on two neighboring-antidotes instances.

Minrank over GF(2), an exact search with pruning over the fitting matrices,
gives the optimal scalar broadcast length: 3 on the pentagon (K=5 U=1 D=1)
and 4 on K=8 U=1 D=2, so scalar rates 1/3 and 1/4.  Vector schemes achieve
2/5 (the built-in five-user example) and 2/7 (the family's scheme).  Every
scheme is re-verified and exhaustively simulated.
"""

import sys
from fractions import Fraction

sys.path.insert(0, "src")

from icx.model import gen_neighboring_antidotes
from icx.oracle import minrank_gf2
from icx.scheme import simulate_exhaustive, verify
from icx.symmetric import build_antidote_scheme, builtin_example


def compare(name, inst, vector_inst, vector):
    """Print the scalar witness and the vector scheme, each checked against its
    copy of the instance; return (best scalar GF(2) rate, vector rate, every
    scheme verifies and simulates)."""
    res = minrank_gf2(inst)
    print(f"{name}: minrank over GF(2): {res.value} (minimum over {res.search_space_size} fitting matrices)")
    print("fitting matrix:")
    for row in res.witness_matrix.row_list():
        print("   ", row)
    scalar_ok = verify(inst, res.witness_scheme).valid
    scalar_sim = simulate_exhaustive(inst, res.witness_scheme).ok
    print(f"scalar witness scheme: n={res.witness_scheme.n}, verify={scalar_ok}, simulate={scalar_sim}")

    rate = min(Fraction(v.cols, vector.n) for v in vector.V.values())
    vec_ok = verify(vector_inst, vector).valid
    vec_sim = simulate_exhaustive(vector_inst, vector).ok
    print(f"vector scheme: n={vector.n}, rate={rate}, verify={vec_ok}, simulate={vec_sim}\n")
    return Fraction(1, res.value), rate, scalar_ok and scalar_sim and vec_ok and vec_sim


def main():
    ex = builtin_example(2)
    inst8 = gen_neighboring_antidotes(8, 1, 2)
    results = [
        compare("pentagon K=5 U=1 D=1", gen_neighboring_antidotes(5, 1, 1), ex.instance, ex.scheme),
        compare("antidotes K=8 U=1 D=2", inst8, inst8, build_antidote_scheme(8, 1, 2)),
    ]
    for scalar_rate, vector_rate, _ in results:
        print(f"best scalar GF(2) rate {scalar_rate} < vector rate {vector_rate}: {scalar_rate < vector_rate}")
    sys.exit(0 if all(ok and scalar < vector for scalar, vector, ok in results) else 1)


if __name__ == "__main__":
    main()
