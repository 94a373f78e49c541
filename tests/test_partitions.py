from math import comb

import pytest

from schurfit.partitions import (
    Exponents,
    Partition,
    conjugate,
    enumerate_subsets,
    lambda_drop,
    lambda_from_degrees,
    staircase,
)


def test_exponents_validation():
    # a tuple subclass: it equals and hashes like the plain tuple of its degrees
    assert Exponents((4, 2, 0)) == (4, 2, 0)
    assert hash(Exponents((4, 2, 0))) == hash((4, 2, 0))
    with pytest.raises(ValueError):
        Exponents((2, 2, 0))
    with pytest.raises(ValueError):
        Exponents((0, 2))
    with pytest.raises(ValueError):
        Exponents((3, -1))
    with pytest.raises(ValueError):
        Exponents(())


@pytest.mark.parametrize("make", [Exponents, Partition])
def test_non_integral_numbers_are_refused(make):
    # int() would truncate 3.7 to 3; integral floats still count as integers
    with pytest.raises(ValueError, match="3.7 is not an integer"):
        make((3.7, 1.2, 0))
    assert make((3.0, 1, 0)) == make((3, 1, 0))


def test_exponents_drop_refuses_an_index_out_of_range():
    d = Exponents((4, 2, 0))
    assert d.drop(1) == (2, 0) and d.drop(3) == (4, 2)
    for i in (0, 4):
        with pytest.raises(IndexError, match=f"index {i} out of range"):
            d.drop(i)


def test_partition_validation_and_normalization():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError, match="parts must be non-negative"):
        Partition((2, -1))
    assert Partition((2, 1, 0)) == Partition((2, 1))
    assert not (Partition((2, 1, 0)) != Partition((2, 1)))
    assert Partition((2, 1)) != Partition((2, 2))
    assert hash(Partition((2, 1, 0))) == hash(Partition((2, 1)))
    assert Partition((2, 1, 0)).weight == 3
    assert Partition(()).weight == 0


def test_partition_repr_keeps_the_parts_as_given():
    assert repr(Partition((2, 1, 0))) == "Partition(2, 1, 0)"
    assert repr(Partition(())) == "Partition()"


def test_lambda_from_degrees_examples():
    assert lambda_from_degrees(Exponents((4, 2, 0))) == Partition((2, 1, 0))
    assert lambda_from_degrees(Exponents((4, 3, 2, 1, 0))) == Partition(())
    assert lambda_from_degrees(Exponents((5,))) == Partition((5,))


def test_lambda_round_trip_and_weight():
    for degrees in [(4, 2, 0), (8, 5, 3, 1), (7,), (3, 0)]:
        d = Exponents(degrees)
        n = len(d)
        lam = lambda_from_degrees(d)
        recovered = tuple(p + s for p, s in zip(lam, staircase(n)))
        assert recovered == tuple(d)
        assert lam.weight == sum(d) - comb(n, 2)


def test_lambda_drop_examples():
    d = Exponents((4, 2, 0))
    assert lambda_drop(d, 1) == Partition((1, 0))
    assert lambda_drop(d, 2) == Partition((3, 0))
    assert lambda_drop(d, 3) == Partition((3, 2))


def test_lambda_drop_staircase_gives_columns():
    n = 5
    d = Exponents(range(n - 1, -1, -1))
    for i in range(1, n + 1):
        expected = Partition((1,) * (i - 1) + (0,) * (n - i))
        assert lambda_drop(d, i) == expected


def test_lambda_drop_weight_formula():
    for degrees in [(4, 2, 0), (8, 5, 3, 1), (6, 4)]:
        d = Exponents(degrees)
        n = len(d)
        for i in range(1, n + 1):
            assert lambda_drop(d, i).weight == sum(d) - d[i - 1] - comb(n - 1, 2)


def test_conjugate_examples():
    assert conjugate(Partition((2, 1, 0))) == Partition((2, 1))
    assert conjugate(Partition((3, 2))) == Partition((2, 2, 1))
    assert conjugate(Partition((0, 0, 0))) == Partition(())


def test_conjugate_involution():
    for parts in [(4, 2, 2, 1), (5,), (3, 3, 3), ()]:
        lam = Partition(parts)
        assert conjugate(conjugate(lam)) == lam


def test_enumerate_subsets_lex_order():
    assert list(enumerate_subsets(3, 2)) == [(1, 2), (1, 3), (2, 3)]
    assert list(enumerate_subsets(4, 4)) == [(1, 2, 3, 4)]
    assert list(enumerate_subsets(5, 0)) == [()]
    assert len(list(enumerate_subsets(10, 3))) == 120


def test_enumerate_subsets_total_and_sorted():
    for m in range(1, 13):
        for r in range(m + 1):
            subs = list(enumerate_subsets(m, r))
            assert len(subs) == comb(m, r)
            assert len(set(subs)) == len(subs)
            assert subs == sorted(subs)
            for s in subs:
                assert all(1 <= v <= m for v in s)
                assert list(s) == sorted(s)


def test_enumerate_subsets_rejects_bad_r():
    with pytest.raises(ValueError):
        list(enumerate_subsets(3, 4))
    with pytest.raises(ValueError):
        list(enumerate_subsets(3, -1))
