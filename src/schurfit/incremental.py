"""One-point streaming updates of the closed-form fit.

A ``RegressionState`` caches the aggregates behind the solution formula: the
minor-sum matrix S, the moment sums T, the signed numerators N, and the
denominator D.  Appending a point then only needs the subset sums that
involve the new point -- C(m, n-2) Schur products for the S increment R and
C(m, n-1) terms for the D increment -- dropping the per-point cost from
O(m^n) to O(m^(n-1)).  Both increments, and the new B columns, come from the
subset kernel in `regress` with the new point joined to every subset.  Points
can only be appended; removal is unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

from .numeric import Scalar, ScalarModeError, format_scalar, parse_scalar, scalar_pow
from .partitions import Exponents
from .regress import (
    BMatrix,
    DataSet,
    NonUniqueSolutionError,
    _aggregates,
    _append_b_columns,
    _denominator_sum,
    _drops,
    _minor_matrix,
    _zero_denominator,
)

# Unused here: every subset sum runs through the regress kernel.  The names
# stay bound because perfbench/tracing.py wraps incremental.schur and
# incremental.vandermonde by name.
from .symfunc import schur, vandermonde  # noqa: F401


class UnsupportedOperationError(RuntimeError):
    """Raised for operations the streaming scheme cannot support."""


@dataclass
class RegressionState:
    """Cached aggregates for a data stream under a fixed model signature.

    Invariants: S is Hermitian, N_i is the signed combination of row i of S
    with T, and a_i * D = N_i whenever D is nonzero.
    """

    d: Exponents
    exact: bool
    x: list
    y: list
    w: list | None
    s: list
    t: list
    n_vec: list
    denom: Scalar
    a: list | None
    evaluations: int = 0

    @property
    def m(self):
        return len(self.x)

    @property
    def coefficients(self):
        if self.a is None:
            raise NonUniqueSolutionError(
                "no unique solution yet: denominator is zero at m="
                f"{self.m} (need more / better-spread points)"
            )
        return self.a

    def remove_point(self, *_args):
        raise UnsupportedOperationError("points can only be appended, not removed")

    # -- snapshot / restore -------------------------------------------

    def to_dict(self):
        fmt = format_scalar
        return {
            "degrees": list(self.d),
            "mode": "exact" if self.exact else "float",
            "m": self.m,
            "x": [fmt(v) for v in self.x],
            "y": [fmt(v) for v in self.y],
            "w": [fmt(v) for v in self.w] if self.w is not None else None,
            "S": [[fmt(v) for v in row] for row in self.s],
            "T": [fmt(v) for v in self.t],
            "N": [fmt(v) for v in self.n_vec],
            "D": fmt(self.denom),
            "a": [fmt(v) for v in self.a] if self.a is not None else None,
            "evaluations": self.evaluations,
        }

    @staticmethod
    def from_dict(payload):
        exact = payload["mode"] == "exact"
        p = lambda text: parse_scalar(text, exact)
        return RegressionState(
            d=Exponents(payload["degrees"]),
            exact=exact,
            x=[p(v) for v in payload["x"]],
            y=[p(v) for v in payload["y"]],
            w=[p(v) for v in payload["w"]] if payload.get("w") is not None else None,
            s=[[p(v) for v in row] for row in payload["S"]],
            t=[p(v) for v in payload["T"]],
            n_vec=[p(v) for v in payload["N"]],
            denom=p(payload["D"]),
            a=[p(v) for v in payload["a"]] if payload.get("a") is not None else None,
            evaluations=int(payload.get("evaluations", 0)),
        )


def _coefficients_or_none(d, x, n_vec, denom):
    if _zero_denominator(denom, d, x):
        return None
    return [ni / denom for ni in n_vec]


def init_state(d, data=None, *, exact=True):
    """Build a state from an initial batch (or an empty stream).

    With no data every aggregate is zero and coefficient queries error until
    enough points arrive.
    """
    if data is None:
        n = len(d)
        zero = Scalar.zero(exact)
        return RegressionState(
            d=d,
            exact=exact,
            x=[],
            y=[],
            w=None,
            s=[[zero for _ in range(n)] for _ in range(n)],
            t=[zero for _ in range(n)],
            n_vec=[zero for _ in range(n)],
            denom=zero,
            a=None,
        )
    denom, s, t, n_vec, evaluations = _aggregates(d, data)
    return RegressionState(
        d=d,
        exact=data.exact,
        x=list(data.x),
        y=list(data.y),
        w=list(data.w) if data.w is not None else None,
        s=s,
        t=t,
        n_vec=n_vec,
        denom=denom,
        a=_coefficients_or_none(d, data.x, n_vec, denom),
        evaluations=evaluations,
    )


def update(state, x_new, y_new, w_new=None):
    """Append one data point and return the refreshed state.

    The numerators are advanced division-free: N'_i adds the signed terms
    (S + R)_{i,j} * dT_j + R_{i,j} * T_j with dT_j the new point's moment
    contribution; coefficients are re-derived as N'_i / D' at the end.
    """
    if x_new.exact is not state.exact or y_new.exact is not state.exact:
        raise ScalarModeError("new point does not match the state's numeric mode")
    if (state.w is not None) != (w_new is not None) and state.m > 0:
        raise ValueError("weighted and unweighted points cannot be mixed")
    if w_new is not None and w_new.is_zero():
        raise ValueError("weights must be nonzero")

    d = state.d
    n = len(d)
    mode = state.exact
    # R and the D increment: the subset sums over subsets holding the new point
    r, evals_r = _minor_matrix(d, state, (x_new, w_new))
    d_inc, evals_d = _denominator_sum(d, state, (x_new, w_new))

    wsq_new = w_new.mag_sq() if w_new is not None else Scalar.one(mode)
    xbar = x_new.conj()
    dt = [scalar_pow(xbar, dj) * wsq_new * y_new for dj in d]

    new_s = [[state.s[i][j] + r[i][j] for j in range(n)] for i in range(n)]
    new_t = [state.t[j] + dt[j] for j in range(n)]
    new_n = []
    for i in range(n):
        acc = state.n_vec[i]
        for j in range(n):
            term = new_s[i][j] * dt[j] + r[i][j] * state.t[j]
            acc = acc + term if (i + j) % 2 == 0 else acc - term
        new_n.append(acc)
    new_d = state.denom + d_inc

    new_x = state.x + [x_new]
    new_w = None
    if state.w is not None or w_new is not None:
        new_w = (state.w or []) + [w_new]
    return RegressionState(
        d=d,
        exact=mode,
        x=new_x,
        y=state.y + [y_new],
        w=new_w,
        s=new_s,
        t=new_t,
        n_vec=new_n,
        denom=new_d,
        a=_coefficients_or_none(d, new_x, new_n, new_d),
        evaluations=state.evaluations + evals_r + evals_d,
    )


def extend_b_matrix(state, prior_b, x_new, w_new=None):
    """Grow B by the columns of the (n-1)-subsets containing the new point.

    `prior_b` must have been built from the state's current m points.  New
    columns are appended after the existing ones; the shared normalizer moves
    to the enlarged denominator.
    """
    d = state.d
    n = len(d)
    m = state.m
    mode = state.exact
    if len(prior_b.columns) != comb(m, n - 1):
        raise ValueError(
            f"prior B matrix has {len(prior_b.columns)} columns; the state's "
            f"{m} points give C({m}, {n - 1}) = {comb(m, n - 1)}"
        )

    new_d = state.denom + _denominator_sum(d, state, (x_new, w_new))[0]
    entries = [list(row) for row in prior_b.entries]
    if not mode:
        rescale = Scalar.from_float(prior_b.denominator_root / sqrt(float(new_d.re)))
        entries = [[v * rescale for v in row] for row in entries]
    b = BMatrix(
        entries=entries,
        columns=list(prior_b.columns),
        denominator_root_sq=new_d,
        normalized=not mode,
    )
    _append_b_columns(b, state, _drops(d), n - 2, (x_new, w_new), (m + 1,))
    return b
