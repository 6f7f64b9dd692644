#!/usr/bin/env python3
"""Reproduce the scalar/vector separation on the pentagon instance.

Minrank over GF(2), an exact search with pruning over every fitting matrix,
gives the optimal scalar broadcast length (3, so rate 1/3), while the
built-in five-user vector scheme achieves 2/5 over five uses.  Both schemes
are re-verified and exhaustively simulated.
"""

import sys
from fractions import Fraction

sys.path.insert(0, "src")

from icx.model import gen_neighboring_antidotes
from icx.oracle import minrank_gf2
from icx.scheme import simulate_exhaustive, verify
from icx.symmetric import builtin_example


def main():
    pentagon = gen_neighboring_antidotes(5, 1, 1)
    res = minrank_gf2(pentagon)
    print(f"minrank over GF(2): {res.value} (minimum over {res.search_space_size} fitting matrices)")
    print("fitting matrix:")
    for row in res.witness_matrix.row_list():
        print("   ", row)
    scalar_ok = verify(pentagon, res.witness_scheme).valid
    scalar_sim = simulate_exhaustive(pentagon, res.witness_scheme).ok
    print(f"scalar witness scheme: n={res.witness_scheme.n}, verify={scalar_ok}, simulate={scalar_sim}")

    ex = builtin_example(2)
    vec_ok = verify(ex.instance, ex.scheme).valid
    vec_sim = simulate_exhaustive(ex.instance, ex.scheme).ok
    print(f"vector scheme: n={ex.scheme.n}, rate={ex.claimed_rate}, verify={vec_ok}, simulate={vec_sim}")

    scalar_rate = Fraction(1, res.value)
    print(f"\nbest scalar GF(2) rate {scalar_rate} < vector rate {ex.claimed_rate}: "
          f"{scalar_rate < ex.claimed_rate}")
    sys.exit(0 if scalar_ok and scalar_sim and vec_ok and vec_sim and scalar_rate < ex.claimed_rate else 1)


if __name__ == "__main__":
    main()
