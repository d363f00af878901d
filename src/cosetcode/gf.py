"""Prime fields GF(q): the primality test."""

from __future__ import annotations


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
    """Prime field GF(q).  Holds the modulus; refuses a q that is not prime."""

    def __init__(self, q: int):
        if not is_prime(q):
            raise ValueError(f"q={q} is not prime")
        self.q = q
