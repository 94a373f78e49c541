"""Exponent signatures, the partitions derived from them, and subset streams.

The model signature d = (d1 > d2 > ... > dn >= 0) determines the partition
lam = d - staircase(n) and, for each dropped exponent, the smaller partition
lam[i] = drop(d, i) - staircase(n-1).  ``enumerate_subsets`` lists subsets in
lexicographic order; the subset kernel in `regress` does not call it but
iterates ``itertools.combinations`` over 0-based point indices, which gives
the same order, so B's columns and the float summation order follow it.
"""

from __future__ import annotations

from itertools import combinations


def as_int(v):
    """int(v); ValueError for a v that int() would truncate, such as 3.7."""
    k = int(v)
    if k != v:
        raise ValueError(f"{v!r} is not an integer")
    return k


class Exponents(tuple):
    """Strictly decreasing tuple of non-negative integer exponents."""

    __slots__ = ()

    def __new__(cls, degrees):
        d = tuple(map(as_int, degrees))
        if not d:
            raise ValueError("need at least one exponent")
        if d[-1] < 0:
            raise ValueError("exponents must be non-negative")
        if any(a <= b for a, b in zip(d, d[1:])):
            raise ValueError(f"exponents must be strictly decreasing: {d}")
        return super().__new__(cls, d)

    def __repr__(self):
        return f"Exponents{tuple(self)}"

    def drop(self, i):
        """The (n-1)-tuple with the i-th exponent removed (i is 1-based)."""
        if not 1 <= i <= len(self):
            raise IndexError(f"index {i} out of range for {self!r}")
        return self[: i - 1] + self[i:]


class Partition(tuple):
    """Weakly decreasing tuple of non-negative integers.

    Trailing zeros are kept as given but ignored by equality and hashing,
    since partitions of different nominal lengths must interoperate.
    """

    __slots__ = ()

    def __new__(cls, parts):
        p = tuple(map(as_int, parts))
        if p and p[-1] < 0:
            raise ValueError("parts must be non-negative")
        if any(a < b for a, b in zip(p, p[1:])):
            raise ValueError(f"parts must be weakly decreasing: {p}")
        return super().__new__(cls, p)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.normalized() == other.normalized()

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self.normalized())

    def __repr__(self):
        return f"Partition{tuple(self)}"

    @property
    def weight(self):
        return sum(self)

    def normalized(self):
        """Parts with trailing zeros stripped, as a plain tuple."""
        k = len(self)
        while k and self[k - 1] == 0:
            k -= 1
        return self[:k]


def staircase(n):
    """The partition (n-1, n-2, ..., 1, 0)."""
    return Partition(range(n - 1, -1, -1))


def lambda_from_degrees(d):
    """Partition d - staircase(n); its weight is sum(d) - C(n, 2)."""
    n = len(d)
    return Partition(dk - (n - 1 - k) for k, dk in enumerate(d))


def lambda_drop(d, i):
    """The partition lam[i] of the exponents d with the i-th one (1-based)
    removed: `lambda_from_degrees` of d.drop(i), so drop(d, i) -
    staircase(n-1)."""
    return lambda_from_degrees(d.drop(i))


def conjugate(lam):
    """Transpose of the Young diagram: part j counts cells of height >= j."""
    parts = lam.normalized()
    if not parts:
        return Partition(())
    return Partition(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def enumerate_subsets(m, r):
    """All r-element subsets of {1, ..., m} as 1-based tuples, lexicographic.

    The subset kernel in `regress` walks the same order over 0-based indices
    with ``itertools.combinations``; B's column labels are these tuples.
    """
    if r < 0 or r > m:
        raise ValueError(f"cannot choose {r} elements from [{m}]")
    return combinations(range(1, m + 1), r)
