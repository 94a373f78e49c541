"""Complex scalar arithmetic in two modes: exact Gaussian-rational and binary64.

A ``Scalar`` is one native number tagged with its mode.  In exact mode the
number is a ``Fraction``, or a ``_Gaussian`` with ``Fraction`` parts when it is
complex, so sums and products never round and division is exact; in float
mode it is a ``float`` or a ``complex`` and divides as Python ``complex``
does.  The arithmetic is the number's own; the Scalar only checks that both
operands share a mode.  Mixing the two modes in one expression is a bug in
the caller and raises ``ScalarModeError`` instead of silently promoting.  The
subset kernel in `regress` computes on the bare numbers, with exact data
scaled to ints or ``_Gaussian`` int pairs, and wraps its sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import pairwise


class ScalarModeError(TypeError):
    """Raised when exact-mode and float-mode scalars meet in one operation."""


class Scalar:
    """A complex number with an explicit arithmetic mode.

    `value` is a Fraction or `_Gaussian` when `exact`, else a float or
    complex; `re` and `im` read its parts.
    """

    __slots__ = ("value", "exact")

    def __init__(self, value, exact):
        self.value = value
        self.exact = exact

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_exact(re, im=0):
        re, im = Fraction(re), Fraction(im)
        return Scalar(_Gaussian(re, im) if im else re, True)

    @staticmethod
    def from_float(re, im=0.0):
        re, im = float(re), float(im)
        return Scalar(complex(re, im) if im else re, False)

    @staticmethod
    def from_int(k, exact):
        return Scalar.from_exact(k) if exact else Scalar.from_float(k)

    @staticmethod
    def zero(exact):
        return Scalar.from_int(0, exact)

    @staticmethod
    def one(exact):
        return Scalar.from_int(1, exact)

    @property
    def re(self):
        """The real part: an exact real value itself, not the new Fraction
        that `Fraction.real` builds on every read."""
        v = self.value
        return v if type(v) is Fraction else v.real

    im = property(lambda self: self.value.imag)

    # -- mode handling ------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.exact is not self.exact:
            raise ScalarModeError("cannot mix exact and float scalars")

    def to_float(self):
        """Convert to float mode (lossy for general rationals)."""
        return Scalar.from_float(self.re, self.im)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return Scalar(self.value + other.value, self.exact)

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.value - other.value, self.exact)

    def __neg__(self):
        return Scalar(-self.value, self.exact)

    def __mul__(self, other):
        self._check(other)
        return Scalar(self.value * other.value, self.exact)

    def __truediv__(self, other):
        # a zero divisor raises ZeroDivisionError in every value type; float
        # complex division scales by the larger part of the divisor, so unlike
        # |other|^2 it does not overflow for |other| above 1e154
        self._check(other)
        return Scalar(self.value / other.value, self.exact)

    def conj(self):
        return Scalar(self.value.conjugate(), self.exact)


    def mag_sq(self):
        """conj(self) * self, always real and non-negative."""
        return Scalar(self.re * self.re + self.im * self.im, self.exact)

    # -- predicates / comparison --------------------------------------

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.exact is other.exact and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im, self.exact))

    def __abs__(self):
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r}, exact={self.exact})"


class _Gaussian:
    """The Gaussian number real + imag*i, the one exact complex type: the
    value of an exact complex Scalar, with Fraction parts, and the subset
    kernel's number for Gaussian exact data, with int parts, or Fraction parts
    after a division.

    It mixes with ints and Fractions on either side, reading their .real and
    .imag, since `symfunc` starts its sums and products at the ints 0 and 1
    and a complex Scalar meets real ones.  It equals a `_Gaussian`, int or
    Fraction of the same value, and hashes as that int or Fraction when its
    imaginary part is zero, so exact `det`'s unit-pivot test `== 1` matches a
    Gaussian unit too.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    def __add__(self, other):
        return _Gaussian(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        return _Gaussian(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        return _Gaussian(other.real - self.real, other.imag - self.imag)

    def __mul__(self, other):
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return _Gaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, c, d = self.real, self.imag, other.real, other.imag
        q = Fraction(c * c + d * d)
        return _Gaussian((a * c + b * d) / q, (b * c - a * d) / q)

    def __rtruediv__(self, other):
        return _Gaussian(other.real, other.imag) / self

    def __neg__(self):
        return _Gaussian(-self.real, -self.imag)

    def __bool__(self):
        return bool(self.real or self.imag)

    def __eq__(self, other):
        if isinstance(other, _Gaussian):
            return self.real == other.real and self.imag == other.imag
        if isinstance(other, (int, Fraction)):
            return not self.imag and self.real == other
        return NotImplemented

    def __hash__(self):
        return hash((self.real, self.imag)) if self.imag else hash(self.real)

    def conjugate(self):
        return _Gaussian(self.real, -self.imag)

    def __repr__(self):
        return f"_Gaussian({self.real!r}, {self.imag!r})"


def scalar_pow(s, e):
    """s**e for integer e >= 0 by repeated squaring, for a Scalar s or a
    native number; s**0 is the Scalar one of s's mode, or the int 1 for a
    native s, even for s == 0."""
    if e < 0:
        raise ValueError("negative exponent")
    result = Scalar.one(s.exact) if isinstance(s, Scalar) else 1
    base = s
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


# -- parsing and printing ---------------------------------------------
#
# Accepted literal forms: "3", "-7/4", "1.5", "2e3", "2+3i", "1/2-1/3i",
# "i", "-i", "4i".  Exact parsing keeps rationals and decimal strings
# lossless (Fraction handles both); printing round-trips exact values.
# Float parsing refuses a part that is not finite ("nan", "inf", "1e999").

def parse_scalar(text, exact):
    """Parse a real or complex literal into a Scalar of the given mode.

    Spaces may stand only next to a sign, as in "2 + 3i" or "- 3": a space
    between two other characters splits a number, as in "1 2" or "1e 3", and
    is refused rather than read as one number.

    A float-mode str that does not end in "i" or "I" and that `float` reads
    as a finite number is that number: the general parse below, after
    stripping, would call `float` on the same digits.  Any other text --
    a complex or "p/q" literal, a space inside a number, a value that is not
    finite, or no str at all -- takes the general parse, which accepts and
    refuses as it always has."""
    if not exact and type(text) is str and text[-1:] not in ("i", "I"):
        try:
            value = float(text)
        except ValueError:
            pass
        else:
            if math.isfinite(value):
                return Scalar(value, False)
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    conv = Fraction if exact else _to_float
    try:
        if " " in text and any(a[-1] not in "+-" and b[0] not in "+-" for a, b in pairwise(text.split())):
            raise ValueError("a space splits a number")
        if not s.endswith(("i", "I")):
            return Scalar(conv(s), exact)
        body = s[:-1]
        # split real and imaginary parts at the last sign that is not a
        # leading sign and not part of an exponent like "2e-3"
        split = 0
        for idx in range(len(body) - 1, 0, -1):
            if body[idx] in "+-" and body[idx - 1] not in "eE":
                split = idx
                break
        re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im_part = "1"
        elif im_part == "-":
            im_part = "-1"
        re, im = conv(re_part) if re_part else conv("0"), conv(im_part)
        if not im:
            return Scalar(re, exact)
        return Scalar(_Gaussian(re, im) if exact else complex(re, im), exact)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed scalar literal: {text!r}") from exc


def _to_float(text):
    if "/" in text:
        num, den = text.split("/")
        value = float(num) / float(den)
    else:
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def format_scalar(s):
    """Print a scalar so that parse_scalar round-trips it (lossless when exact).

    str of a float is its shortest round-tripping repr, and str of a Fraction
    is "p/q" or "p".
    """
    v = s.value
    if not isinstance(v, (complex, _Gaussian)):
        return str(v)
    re, im = v.real, v.imag
    if im == 0:
        return str(re)
    im = str(im) + "i"
    if re == 0:
        return im
    return str(re) + ("" if im.startswith("-") else "+") + im
