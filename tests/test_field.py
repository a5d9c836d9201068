import random

import pytest
from hypothesis import given, strategies as st

from zkgrid.field import DEFAULT_MODULUS, Field, _is_probable_prime, decode_signed, encode_signed

P = 65537  # smallest permitted field in the tests


def test_default_modulus_is_254_bit_prime():
    f = Field()
    assert f.modulus == DEFAULT_MODULUS
    assert f.modulus.bit_length() == 254
    assert _is_probable_prime(DEFAULT_MODULUS)  # Field() takes it on trust


def test_small_or_composite_modulus_rejected():
    with pytest.raises(ValueError):
        Field(17)  # below the 2**16 floor
    with pytest.raises(ValueError):
        Field(65536)
    with pytest.raises(ValueError):
        Field(65537 * 3)


def test_modulus_at_or_above_2_255_rejected():
    """File cells lie below 2**255; a longer modulus is refused before
    the primality test, however long it is."""
    assert Field((1 << 255) - 19).modulus == (1 << 255) - 19
    for p in (1 << 255, (1 << 521) - 1, (1 << 100_000) + 1):
        with pytest.raises(ValueError, match="not below 2"):
            Field(p)


def test_add_examples(small_field):
    f = small_field
    # wraparound at the top of the field
    assert (f.element(65536) + f.element(1)).value == 0
    assert (f.element(12) + f.element(9)).value == 21
    a = f.element(31415)
    assert a + f.zero() == a


def test_mul_and_inv_examples(small_field):
    f = small_field
    five = f.element(5)
    inv5 = five.inv()
    assert (five * inv5).value == 1
    assert inv5.value == 26215  # 5 * 26215 = 131075 = 2 * 65537 + 1
    assert (f.element(333) * f.element(444)).value == 333 * 444 % P


def test_inv_of_zero_raises(small_field):
    with pytest.raises(ZeroDivisionError):
        small_field.zero().inv()


def test_modulus_mismatch_raises(small_field, default_field):
    with pytest.raises(ValueError, match="mismatch"):
        small_field.element(1) + default_field.element(1)


def test_from_signed(small_field):
    f = small_field
    assert f.from_signed(-1).value == P - 1
    assert f.from_signed(0).value == 0
    assert f.from_signed(20000).value == 20000
    with pytest.raises(ValueError):
        f.from_signed(-40000)  # |x| >= p/2
    with pytest.raises(ValueError):
        f.from_signed(32769)


def test_field_axioms_random_triples(small_field):
    """Associativity, commutativity, distributivity, inverses: 10**4 triples."""
    p = small_field.modulus
    rng = random.Random(0xA1)
    for _ in range(10_000):
        a, b, c = (rng.randrange(p) for _ in range(3))
        fa, fb, fc = (small_field.element(v) for v in (a, b, c))
        assert (fa + fb) + fc == fa + (fb + fc)
        assert (fa * fb) * fc == fa * (fb * fc)
        assert fa + fb == fb + fa
        assert fa * fb == fb * fa
        assert fa * (fb + fc) == fa * fb + fa * fc
        assert fa + (-fa) == small_field.zero()
        if a != 0:
            assert fa * fa.inv() == small_field.one()


@given(st.integers(min_value=-(P - 1) // 2, max_value=(P - 1) // 2))
def test_from_signed_round_trips(x):
    assert decode_signed(encode_signed(x, P), P) == x


@given(
    st.integers(min_value=-(P - 1) // 2, max_value=(P - 1) // 2),
    st.integers(min_value=-(P - 1) // 2, max_value=(P - 1) // 2),
)
def test_from_signed_injective(x, y):
    if x != y:
        assert encode_signed(x, P) != encode_signed(y, P)


def test_sub_neg_pow_div(small_field):
    f = small_field
    assert (f.element(3) - f.element(10)).value == P - 7
    assert (-f.element(1)).value == P - 1
    assert (f.element(3) ** 4).value == 81
    assert (f.element(6) / f.element(3)).value == 2
