import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from schurfit.numeric import (
    Scalar,
    ScalarModeError,
    _Gaussian,
    format_scalar,
    parse_scalar,
    scalar_pow,
)

from _helpers import exact_scalar


def test_pow_examples():
    assert scalar_pow(Scalar.from_exact(2), 3) == Scalar.from_exact(8)
    assert scalar_pow(Scalar.from_exact(0), 0) == Scalar.from_exact(1)
    assert scalar_pow(Scalar.from_exact(1, 1), 2) == Scalar.from_exact(0, 2)


def test_pow_of_a_native_base_computes_in_its_type():
    # a native base starts from the int 1, so it keeps its own type
    assert scalar_pow(0.0, 0) == 1 and type(scalar_pow(0.0, 0)) is int
    assert scalar_pow(3, 4) == 81 and type(scalar_pow(3, 4)) is int
    assert scalar_pow(Fraction(-1, 2), 3) == Fraction(-1, 8)
    assert scalar_pow(1.5, 2) == 2.25
    assert scalar_pow(1j, 2) == -1
    g = scalar_pow(_Gaussian(1, 1), 2)
    assert (g.real, g.imag) == (0, 2)


def test_scalar_repr_names_the_value_and_the_mode():
    assert repr(Scalar.from_exact(Fraction(-7, 4), 2)) == "Scalar('-7/4+2i', exact=True)"
    assert repr(Scalar.from_float(1.5)) == "Scalar('1.5', exact=False)"


def test_gaussian_repr_names_its_parts():
    assert repr(_Gaussian(2, -1)) == "_Gaussian(2, -1)"
    assert repr(_Gaussian(Fraction(1, 2), 0)) == "_Gaussian(Fraction(1, 2), 0)"


def test_no_collected_test_id_names_a_memory_address():
    # a parameter id made with ids=repr from a value without a __repr__ of
    # its own names the value's address, which changes from run to run, so a
    # list of test names kept between runs could not match it
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=root,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    ids = [line for line in collected.stdout.splitlines() if "::" in line]
    assert any("_Gaussian(1, 1)" in i for i in ids)
    assert [i for i in ids if "object at" in i] == []


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        scalar_pow(Scalar.from_exact(2), -1)


def test_magnitude_examples():
    assert Scalar.from_exact(3, -4).mag_sq() == Scalar.from_exact(25)
    assert Scalar.zero(True).mag_sq() == Scalar.zero(True)
    half_third = Scalar.from_exact(Fraction(1, 2), Fraction(1, 3))
    assert half_third.mag_sq() == Scalar.from_exact(Fraction(13, 36))


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
        assert s.mag_sq() == s.conj() * s
        assert s.mag_sq().im == 0
        assert s.mag_sq().re >= 0


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
        if not b:
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


def test_an_operand_that_is_not_a_scalar_is_an_error():
    a = Scalar.from_exact(1)
    for op in (lambda: a + 1, lambda: a * 1, lambda: a - 1, lambda: a / 1):
        with pytest.raises(TypeError, match="expected Scalar, got int"):
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
    # a zero imaginary part gives a real value, not a complex one
    assert type(parse_scalar("3+0i", True).value) is Fraction
    assert type(parse_scalar("3+0i", False).value) is float
    # spaces may stand next to a sign
    assert parse_scalar("2 + 3i", False) == Scalar.from_float(2.0, 3.0)
    assert parse_scalar("1/2 -  1/3i", True) == Scalar.from_exact(Fraction(1, 2), Fraction(-1, 3))
    assert parse_scalar("- 3", True) == Scalar.from_exact(-3)


@pytest.mark.parametrize("text", ["", "abc", "1+2j", "++3", "1//2"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_scalar(text, exact=True)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("text", ["1 2", "1.5 5", "1e 3", "3  5", "1 /2", "2+3 i"])
def test_parse_refuses_a_number_split_by_spaces(text, exact):
    # a space between two characters that are not signs splits a number;
    # dropping it would read "1 2" as 12, "1.5 5" as 1.55 and "1e 3" as 1000
    with pytest.raises(ValueError, match="malformed scalar literal"):
        parse_scalar(text, exact)


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


# -- _Gaussian against references written here ---------------------------


def _parts(v):
    """(real, imag) of an int, Fraction, complex or _Gaussian as Fractions."""
    return Fraction(v.real), Fraction(v.imag)


def _mul_ref(a, b, c, d):
    return a * c - b * d, a * d + b * c


def _div_ref(a, b, c, d):
    q = c * c + d * d
    return (a * c + b * d) / q, (b * c - a * d) / q


def test_gaussian_matches_complex_on_small_ints():
    # sums and products of ints below 2**20 are exact in binary64
    rng = random.Random(12)
    for _ in range(300):
        a, b, c, d = (rng.randint(-(2**20), 2**20) for _ in range(4))
        g, h = _Gaussian(a, b), _Gaussian(c, d)
        z, w = complex(a, b), complex(c, d)
        assert _parts(g + h) == _parts(z + w)
        assert _parts(g - h) == _parts(z - w)
        assert _parts(g * h) == _parts(z * w)
        assert _parts(-g) == _parts(-z)
        assert _parts(g.conjugate()) == _parts(z.conjugate())
        assert bool(g) == bool(z)


def test_gaussian_matches_the_fraction_formulas():
    rng = random.Random(13)
    for _ in range(300):
        a, b, c, d = (Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(4))
        g, h = _Gaussian(a, b), _Gaussian(c, d)
        assert _parts(g + h) == (a + c, b + d)
        assert _parts(g - h) == (a - c, b - d)
        assert _parts(g * h) == _mul_ref(a, b, c, d)
        if c or d:
            assert _parts(g / h) == _div_ref(a, b, c, d)
        assert _parts(-g) == (-a, -b)
        assert _parts(g.conjugate()) == (a, -b)


@pytest.mark.parametrize("real", [3, -2, Fraction(5, 7), Fraction(-9, 4)], ids=repr)
def test_gaussian_mixes_with_ints_and_fractions_on_both_sides(real):
    a, b = Fraction(2, 3), Fraction(-5, 2)
    g = _Gaussian(a, b)
    r = Fraction(real)
    assert _parts(g + real) == _parts(real + g) == (a + r, b)
    assert _parts(g - real) == (a - r, b)
    assert _parts(real - g) == (r - a, -b)
    assert _parts(g * real) == _parts(real * g) == _mul_ref(a, b, r, 0)
    assert _parts(g / real) == _div_ref(a, b, r, 0)
    assert _parts(real / g) == _div_ref(r, 0, a, b)


def test_gaussian_equality_is_by_value_and_hashes_agree():
    # a Gaussian equals a Gaussian, int or Fraction of the same value, on
    # either side, and one with a zero imaginary part hashes as its real part
    assert _Gaussian(1, 2) == _Gaussian(1, 2) and _Gaussian(1, 2) != _Gaussian(1, -2)
    assert _Gaussian(Fraction(4, 2), 0) == _Gaussian(2, 0) == 2 == _Gaussian(2, Fraction(0))
    assert 1 == _Gaussian(1, 0) and _Gaussian(1, 0) != _Gaussian(1, 1) and _Gaussian(1, 1) != 1
    assert _Gaussian(Fraction(1, 3), 0) == Fraction(1, 3) and Fraction(1, 3) == _Gaussian(Fraction(1, 3), 0)
    assert _Gaussian(0, 0) == 0 and _Gaussian(0, 1) != 0
    for v in (3, -7, Fraction(5, 9), 0):
        assert hash(_Gaussian(v, 0)) == hash(v)
        assert len({_Gaussian(v, 0), v}) == 1
    assert len({_Gaussian(1, 2), _Gaussian(Fraction(2, 2), 2)}) == 1
    # float and complex values belong to the other mode and are never equal
    assert _Gaussian(1, 0) != 1.0 and _Gaussian(1, 2) != complex(1, 2)


def test_gaussian_division_by_zero():
    for divisor in (_Gaussian(0, 0), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            _Gaussian(1, 2) / divisor
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / _Gaussian(0, 0)


# -- Scalars across value types ---------------------------------------------


def test_scalar_values_are_native_numbers():
    assert type(Scalar.from_exact(2).value) is Fraction
    assert type(Scalar.from_exact(1, 1).value) is _Gaussian
    assert type(Scalar.from_float(2).value) is float
    assert type(Scalar.from_float(1, 1).value) is complex
    assert type(parse_scalar("3/4", True).value) is Fraction
    assert type(parse_scalar("1+2i", True).value) is _Gaussian
    assert type(parse_scalar("0.5", False).value) is float
    assert type(parse_scalar("0.5-i", False).value) is complex
    # real exact arithmetic stays on Fraction
    a, b = Scalar.from_exact(Fraction(1, 3)), Scalar.from_exact(Fraction(-2, 5))
    for v in (a + b, a - b, a * b, a / b, -a, a.conj(), a.mag_sq()):
        assert type(v.value) is Fraction


def test_cancelled_gaussian_equals_hashes_and_prints_like_the_real_value():
    two = Scalar.from_exact(1, 1) * Scalar.from_exact(1, -1)
    assert type(two.value) is _Gaussian
    assert two == Scalar.from_exact(2) and Scalar.from_exact(2) == two
    assert hash(two) == hash(Scalar.from_exact(2))
    assert format_scalar(two) == format_scalar(Scalar.from_exact(2)) == "2"
    assert len({two, Scalar.from_exact(2)}) == 1
    assert two.im == 0 and two.re == 2
    assert two + Scalar.from_exact(1) == Scalar.from_exact(3)


def test_float_complex_with_zero_imaginary_part_prints_like_the_float():
    z = Scalar.from_float(1.5, 2.0) * Scalar.from_float(1.5, -2.0)
    assert type(z.value) is complex and z.value.imag == 0
    assert z == Scalar.from_float(6.25) and hash(z) == hash(Scalar.from_float(6.25))
    assert format_scalar(z) == format_scalar(Scalar.from_float(6.25)) == "6.25"


def test_mixed_representations_agree_with_complex_arithmetic():
    # a complex Scalar meets a real one on either side, in both modes
    rng = random.Random(14)
    for _ in range(200):
        a, b, c = (rng.randint(-99, 99) for _ in range(3))
        for make in (Scalar.from_exact, Scalar.from_float):
            z, r = make(a, b), make(c)
            for op in (operator.add, operator.sub, operator.mul):
                assert complex(op(z, r)) == op(complex(a, b), c)
                assert complex(op(r, z)) == op(c, complex(a, b))
