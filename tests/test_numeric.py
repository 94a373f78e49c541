import random
from fractions import Fraction

import pytest

from schurfit.numeric import (
    Scalar,
    ScalarModeError,
    format_scalar,
    magnitude_sq,
    parse_scalar,
    scalar_pow,
)

from _helpers import exact_scalar


def test_pow_examples():
    assert scalar_pow(Scalar.from_exact(2), 3) == Scalar.from_exact(8)
    assert scalar_pow(Scalar.from_exact(0), 0) == Scalar.from_exact(1)
    assert scalar_pow(Scalar.from_exact(1, 1), 2) == Scalar.from_exact(0, 2)


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        scalar_pow(Scalar.from_exact(2), -1)


def test_magnitude_examples():
    assert magnitude_sq(Scalar.from_exact(3, -4)) == Scalar.from_exact(25)
    assert magnitude_sq(Scalar.zero(True)) == Scalar.zero(True)
    half_third = Scalar.from_exact(Fraction(1, 2), Fraction(1, 3))
    assert magnitude_sq(half_third) == Scalar.from_exact(Fraction(13, 36))


def test_exact_field_laws():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (exact_scalar(rng, complex_=True) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_magnitude_matches_conjugate_product():
    rng = random.Random(8)
    for _ in range(100):
        s = exact_scalar(rng, complex_=True)
        assert magnitude_sq(s) == s.conj() * s
        assert magnitude_sq(s).im == 0
        assert magnitude_sq(s).re >= 0


def test_double_conjugation():
    rng = random.Random(9)
    for _ in range(50):
        s = exact_scalar(rng, complex_=True)
        assert s.conj().conj() == s


def test_exact_division_inverts_multiplication():
    rng = random.Random(10)
    for _ in range(100):
        a = exact_scalar(rng, complex_=True)
        b = exact_scalar(rng, complex_=True)
        if b.is_zero():
            continue
        assert (a * b) / b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar.from_exact(1) / Scalar.zero(True)
    with pytest.raises(ZeroDivisionError):
        Scalar.from_float(1.0) / Scalar.zero(False)


def test_float_division_where_the_divisor_squared_leaves_the_range():
    # |b|^2 overflows above about 1e154 and underflows below about 1e-162,
    # while the quotient itself is representable
    for a, b in [(3 + 1j, 2e200 - 1e199j), (3 + 1j, 1e-170 + 2e-171j), (1e160 + 0j, 3e155 + 0j)]:
        q = Scalar.from_float(a.real, a.imag) / Scalar.from_float(b.real, b.imag)
        assert complex(q) == a / b


def test_mode_mixing_is_an_error():
    a = Scalar.from_exact(1)
    b = Scalar.from_float(1.0)
    for op in (lambda: a + b, lambda: a * b, lambda: a - b, lambda: a / b):
        with pytest.raises(ScalarModeError):
            op()


def test_float_agrees_with_exact_on_small_integers():
    rng = random.Random(11)
    for _ in range(200):
        av, bv = rng.randint(-(2**24), 2**24), rng.randint(-(2**24), 2**24)
        ae, be = Scalar.from_exact(av), Scalar.from_exact(bv)
        af, bf = Scalar.from_float(av), Scalar.from_float(bv)
        # products stay below 2**50, exactly representable in binary64
        assert (ae + be).to_float() == af + bf
        assert (ae * be).to_float() == af * bf
        assert (ae - be).to_float() == af - bf


@pytest.mark.parametrize(
    "text",
    ["3/4", "1.5", "2+3i", "1/2-1/3i", "i", "-i", "4i", "-7/4", "0", "2e-3i", "-2+3i"],
)
def test_parse_print_round_trip_exact(text):
    s = parse_scalar(text, exact=True)
    assert parse_scalar(format_scalar(s), exact=True) == s


def test_parse_specific_values():
    assert parse_scalar("2+3i", True) == Scalar.from_exact(2, 3)
    assert parse_scalar("1/2-1/3i", True) == Scalar.from_exact(
        Fraction(1, 2), Fraction(-1, 3)
    )
    assert parse_scalar("1.5", True) == Scalar.from_exact(Fraction(3, 2))
    assert parse_scalar("-i", False) == Scalar.from_float(0.0, -1.0)


@pytest.mark.parametrize("text", ["", "abc", "1+2j", "++3", "1//2"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_scalar(text, exact=True)


@pytest.mark.parametrize(
    "text", ["nan", "inf", "-Infinity", "1e999", "2+nani", "1-infi", "1e308/1e-10"]
)
def test_parse_rejects_non_finite_floats(text):
    # exact mode refuses nan and inf too, and reads 1e999 as the exact 10**999
    with pytest.raises(ValueError):
        parse_scalar(text, exact=False)


def test_float_round_trip():
    s = Scalar.from_float(0.1, -2.5e-7)
    assert parse_scalar(format_scalar(s), exact=False) == s
