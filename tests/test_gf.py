"""Prime fields: the primality test."""

import pytest

from cosetcode.gf import FieldSpec, is_prime


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for k in range(-3, 32):
        assert is_prime(k) == (k in primes)


@pytest.mark.parametrize("q", (0, 1, 4, 6, 9, 15, 21))
def test_fieldspec_rejects_nonprime(q):
    with pytest.raises(ValueError):
        FieldSpec(q)

