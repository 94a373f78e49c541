"""Seeded input generators for the three benchmark workloads.

Every generator takes the workload seed and returns plain Python numbers
(`float`, `Fraction`, or `complex` with dyadic parts); the harness writes them
to CSV and the package sees only what `cli.read_dataset` parses back.  Each
workload runs the same four operations (a float fit, an exact fit, a float
pseudoinverse and a point-by-point stream with snapshots) on its own inputs,
so every end-to-end metric exists on every workload; the inputs decide which
layer the time goes to.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Inputs:
    """Rows (x, y) or (x, y, w) for each operation of one run."""

    fit: list  # float fit and float pseudoinverse
    exact: list  # exact fit
    stream: list  # appended one point at a time, in this order


@dataclass(frozen=True)
class Workload:
    name: str
    degrees: tuple
    weighted: bool
    snapshot_every: int  # appends between snapshot round trips
    generate: Callable[[int], Inputs]


def _dyadic(value, bits):
    """`value` rounded to a multiple of 2**-bits, so that the float and the
    exact parse of its literal are the same number."""
    return Fraction(round(value * 2**bits), 2**bits)


def dense_quartic(seed):
    """The reference quartic x^4 - 2.5e5 x^2 on the symmetric grid over
    [-500, 500] (the same formula as `cli.quartic_example`), with seeded
    uniform noise of 1 % of the signal peak: 40 points for the float fit and
    pseudoinverse, 60 for the stream, and the noiseless 20-point rational grid
    for the exact fit."""
    rng = random.Random(seed)
    half = 500

    def noisy(m):
        xs = [-half + 2 * half * i / (m - 1) for i in range(m)]
        signal = [x**4 - 2.5e5 * x**2 for x in xs]
        amp = 0.01 * max(abs(v) for v in signal)
        return [(x, v + rng.uniform(-amp, amp)) for x, v in zip(xs, signal)]

    grid = [Fraction(-half) + Fraction(2 * half * i, 19) for i in range(20)]
    exact = [(x, x**4 - 250000 * x**2) for x in grid]
    return Inputs(fit=noisy(40), exact=exact, stream=noisy(60))


def sparse_highdeg(seed):
    """Three distinct positive rationals k + r/256 (k = 1, 2, 3, odd r < 16)
    and targets from a seeded (40, 20, 0) model whose three terms are of the
    same size at the largest point, rounded to binary64 so that the float and
    exact runs fit the same numbers.  Near-fixed ratios between the points keep
    the conditioning, and so the float digits, alike across seeds; the fixed
    denominator keeps the cost of the exact fit alike."""
    rng = random.Random(seed)
    xs = [k + Fraction(2 * rng.randint(0, 7) + 1, 256) for k in (1, 2, 3)]
    coef = [rng.choice((-1, 1)) * Fraction(rng.randint(16, 31), 16) for _ in range(3)]
    top = xs[-1]
    ys = [float(coef[0] * (x / top) ** 40 + coef[1] * (x / top) ** 20 + coef[2]) for x in xs]
    rows = [(x, Fraction(y)) for x, y in zip(xs, ys)]
    return Inputs(fit=rows, exact=rows, stream=rows)


def stream_complex(seed):
    """60 complex points with modulus in [0.5, 2] and uniform phase, targets
    from a seeded complex (4, 2, 0) model plus 1 % noise, and real weights in
    [0.5, 2]; all values dyadic.  The float fit and pseudoinverse use the first
    40 points, the exact fit the first 15."""
    rng = random.Random(seed)

    def gaussian_dyadic(z):
        return complex(_dyadic(z.real, 10), _dyadic(z.imag, 10))

    coef = [gaussian_dyadic(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(3)]
    rows = []
    for _ in range(60):
        r, t = rng.uniform(0.5, 2), rng.uniform(0, 2 * math.pi)
        z = gaussian_dyadic(complex(r * math.cos(t), r * math.sin(t)))
        noise = complex(rng.gauss(0, 0.01), rng.gauss(0, 0.01))
        y = gaussian_dyadic(coef[0] * z**4 + coef[1] * z**2 + coef[2] + noise)
        rows.append((z, y, _dyadic(rng.uniform(0.5, 2), 6)))
    return Inputs(fit=rows[:40], exact=rows[:15], stream=rows)


# Why each workload exists.
#
# dense_quartic: every Schur value of (4, 2, 0) is a 2x2 determinant, so
#   nearly all the time goes to the C(m,3) denominator loop, the C(m,2)
#   minor-sum loop and Scalar dispatch.  A native subset kernel shows its gain
#   here; a shape-aware Schur route should not move it.
# sparse_highdeg: with three points each phase sums 1 to 3 subsets, so the
#   loops do almost nothing and the 38x38 and 39x39 Jacobi-Trudi determinants
#   in symfunc.schur do nearly all the work.  A shape-aware Schur route shows
#   its gain here and a loop kernel should barely move it; the float fit
#   guards the accuracy of any new Schur route.
# stream_complex: the same subset sums used another way.  Each append adds
#   C(m,n-1) increments instead of a batch C(m,n) sum, every term carries
#   complex arithmetic and |w|^2 weights, and snapshot round trips happen
#   between appends.  A kernel specialised for real, unweighted batch data
#   that slows this path shows up here.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_quartic", (4, 2, 0), False, 5, dense_quartic),
        Workload("sparse_highdeg", (40, 20, 0), False, 1, sparse_highdeg),
        Workload("stream_complex", (4, 2, 0), True, 5, stream_complex),
    )
}
