"""Classical least-squares reference solver, independent of the closed form.

Builds the normal equation (WA)*WA a = (WA)*Wy by direct summation and solves
it by elimination -- deliberately the textbook route whose forward error
scales with the squared condition number, so float-mode comparisons should
stick to well-conditioned data (|x| in [0.5, 2], modest m).  Shares no code
with the subset-sum pipeline it validates.
"""

from __future__ import annotations

from .numeric import Scalar, scalar_pow


class RankDeficiencyError(ArithmeticError):
    """The Gram matrix of the normal equation is singular."""


def _normal_system(d, data):
    n = len(d)
    mode = data.exact
    g = [[Scalar.zero(mode) for _ in range(n)] for _ in range(n)]
    rhs = [Scalar.zero(mode) for _ in range(n)]
    for k in range(data.m):
        pows = [scalar_pow(data.x[k], dj) for dj in d]
        wsq = data.w[k].mag_sq() if data.w is not None else Scalar.one(mode)
        for i in range(n):
            ci = pows[i].conj() * wsq
            rhs[i] = rhs[i] + ci * data.y[k]
            for j in range(n):
                g[i][j] = g[i][j] + ci * pows[j]
    return g, rhs


def gram(d, data):
    """The Hermitian n x n matrix (WA)*WA of weighted conjugate power sums:
    the G of the normal equation G a = (WA)*Wy."""
    return _normal_system(d, data)[0]


def solve_linear(g, rhs):
    """Solve G a = rhs by elimination with back-substitution.

    The mode is read off rhs.  Exact mode pivots on the first nonzero entry
    and divides exactly; float mode uses partial pivoting by magnitude.
    Elimination raises RankDeficiencyError unless it finds a nonzero pivot
    for column k, which it swaps into row k, and no later step writes row k;
    so back-substitution divides by nonzero pivots only and checks none.
    """
    n, exact = len(rhs), rhs[0].exact
    a = [row[:] + [rhs[i]] for i, row in enumerate(g)]
    for k in range(n):
        if exact:
            pivot = next((r for r in range(k, n) if a[r][k]), None)
        else:
            pivot = max(range(k, n), key=lambda r: float(a[r][k].mag_sq().re))
            if not a[pivot][k]:
                pivot = None
        if pivot is None:
            raise RankDeficiencyError("normal-equation matrix is singular")
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            for c in range(k, n + 1):
                a[r][c] = a[r][c] - f * a[k][c]
    out = [None] * n
    for k in range(n - 1, -1, -1):
        acc = a[k][n]
        for c in range(k + 1, n):
            acc = acc - a[k][c] * out[c]
        out[k] = acc / a[k][k]
    return out


def solve_normal(d, data):
    """Coefficients from the normal equation, solved directly."""
    g, rhs = _normal_system(d, data)
    return solve_linear(g, rhs)


def brute_force_min(d, data):
    """Grid-refinement minimizer of the (real) sum of squared errors.

    Sanity oracle for n <= 2 with real float data only.  Ten rounds search a
    21-per-axis grid: the first spans [-10, 10] per coefficient, and each
    later one is centred on the previous round's best point with a fifth of
    its span, so the last grid's spacing is 0.2^9, about 5e-7, and no
    coefficient beyond 12.5 in size is reached.
    """
    n = len(d)
    if n > 2:
        raise ValueError("brute-force search is limited to one or two terms")
    if data.exact:
        raise ValueError("brute-force search works on float data")
    xs = [float(v.re) for v in data.x]
    ys = [float(v.re) for v in data.y]
    ws = [float(v.mag_sq().re) for v in data.w] if data.w is not None else [1.0] * data.m

    def sse(coeffs):
        total = 0.0
        for xk, yk, wk in zip(xs, ys, ws):
            pred = sum(c * xk**dj for c, dj in zip(coeffs, d))
            total += wk * (pred - yk) ** 2
        return total

    best = [0.0] * n
    span = 10.0
    steps = 10
    for _ in range(10):
        grid = [
            [best[i] + span * (t - steps) / steps for t in range(2 * steps + 1)]
            for i in range(n)
        ]
        if n == 1:
            candidates = ([g0] for g0 in grid[0])
        else:
            candidates = ([g0, g1] for g0 in grid[0] for g1 in grid[1])
        best = min(candidates, key=sse)
        span *= 0.2
    return [Scalar.from_float(v) for v in best]
