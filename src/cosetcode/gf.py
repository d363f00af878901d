"""Prime fields GF(q): the primality test and the inverse table."""

from __future__ import annotations

import numpy as np


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """Prime field GF(q).  Holds the modulus and an inverse table."""

    def __init__(self, q: int):
        if not is_prime(q):
            raise ValueError(f"q={q} is not prime")
        self.q = q
        # inverse table: inv_table[a] * a == 1 mod q (index 0 unused)
        self.inv_table = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            self.inv_table[a] = pow(a, q - 2, q)
