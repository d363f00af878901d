"""Prime fields: the primality test and the inverse table."""

import pytest

from cosetcode.gf import FieldSpec, is_prime

PRIMES = (2, 3, 5, 7, 11, 13)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for k in range(-3, 32):
        assert is_prime(k) == (k in primes)


@pytest.mark.parametrize("q", (0, 1, 4, 6, 9, 15, 21))
def test_fieldspec_rejects_nonprime(q):
    with pytest.raises(ValueError):
        FieldSpec(q)


@pytest.mark.parametrize("q", PRIMES)
def test_inverse_table(q):
    f = FieldSpec(q)
    assert f.inv_table[0] == 0  # unused slot
    for a in range(1, q):
        assert (a * f.inv_table[a]) % q == 1
