"""One-point streaming updates of the closed-form fit.

A ``RegressionState`` caches the aggregates behind the solution formula: the
minor-sum matrix S, the moment sums T, the signed numerators N, and the
denominator D.  The coefficients a_i = N_i / D are not stored but divided out
when read, so neither a state nor a restored snapshot can hold coefficients
that disagree with its N and D.  Appending a point adds to D and S only the
subset terms that contain it -- C(m, n-2) terms for the S increment R and
C(m, n-1) for the D increment -- dropping the per-point cost from
O(m^n) to O(m^(n-1)).  An append is a batch: the state's points with the new
one last, which `regress._aggregates` sums over the subsets that hold that
last point, giving the increments and the point's own moments as native
numbers.  Those points come lifted: a state keeps the lift of its points
(`regress._lift`), with the powers and rows of exact ones (`regress._kept`),
and an append extends it by the new point alone (`regress._extended`), so
no point of the stream is lifted again.  Only a point that changes how the
others lift -- the first complex x, w or y of a real stream, or an exact
part with a new denominator -- and the first append to a restored state,
which keeps no lift, lift every point.  The increments are added to the
values of the stored Scalars in one pass, N is re-derived on the sums, and
each stored value is made a Scalar once, in `_state`; the only Scalar
operation is the division a_i = N_i / D on each read of the coefficients.
Exact and float appends take the same code.  Float points, and exact ones
of more than `regress.MINORS_MAX_TERMS` terms, sum those subsets in one
generated loop nest (`regress._appended_walker`) that inlines the Schur and
V statements, and exact ones of fewer terms in the minors walk on the kept
rows, so an append's subsets show in the evaluation count.  Of the points
that take the nest, subsets of more than `symfunc.UNROLL_MAX_POINTS` points,
past the nest's limit, and the new columns of `extend_b_matrix` take the
batch walker instead (`regress._walker`), which calls `regress.schur` and
`regress.vandermonde`.  `update` and `extend_b_matrix` build that point
set through one helper, which refuses a zero weight, a mix of weighted and
unweighted points and a value of another mode than the stream's: the point
is checked there, where it enters, and the kernel's lift trusts it.
Points can only be appended; removal is unsupported.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass, field
from math import comb, sqrt
from types import SimpleNamespace

from .numeric import Scalar, ScalarModeError, format_scalar, parse_scalar
from .partitions import Exponents, as_int
from .regress import (
    BMatrix,
    NonUniqueSolutionError,
    _aggregates,
    _append_b_columns,
    _checked_numerators,
    _extended,
    _finite,
    _hermitian,
    _kept,
    _lift,
    _quotients,
    _signed_numerators,
    _sums,
)

# Unused here: every subset sum runs in regress, where the batch walker
# calls regress.schur and regress.vandermonde, for a batch and for an
# append's B columns and subsets past the loop nest's point limit; the loop
# nest and the minors walk call neither.  These names stay bound because
# perfbench/tracing.py wraps incremental.schur and incremental.vandermonde
# by name.
from .symfunc import schur, vandermonde  # noqa: F401


@dataclass
class RegressionState:
    """Cached aggregates for a data stream under a fixed model signature.

    Invariants: S is Hermitian and N_i is the signed combination of row i of
    S with T.  `a` and `exact` are read off N and D, not stored beside them.
    `_lifted` is the lift of the state's points (`regress._lift`, with what
    `regress._kept` keeps), which an append extends by its point; it is not
    part of the state's value, so `==`, `repr` and `to_dict` leave it out, and
    a state without one, as `from_dict` makes, lifts its points on its first
    append.
    """

    d: Exponents
    x: list
    y: list
    w: list | None
    s: list
    t: list
    n_vec: list
    denom: Scalar
    evaluations: int = 0
    _lifted: object = field(default=None, compare=False, repr=False)

    @property
    def m(self):
        return len(self.x)

    @property
    def exact(self):
        return self.denom.exact

    @property
    def a(self):
        """a_i = N_i / D, divided out on each read, or None while D vanishes."""
        return _quotients(self.d, self.x, self.n_vec, self.denom)

    @property
    def coefficients(self):
        a = self.a
        if a is None:
            raise NonUniqueSolutionError(
                "no unique solution yet: denominator is zero at m="
                f"{self.m} (need more / better-spread points)"
            )
        return a

    # -- snapshot / restore -------------------------------------------

    def to_dict(self):
        # str of a float value is what `format_scalar` prints for it
        fmt = lambda values: [str(v.value) if type(v.value) is float else format_scalar(v) for v in values]
        return {
            "degrees": list(self.d),
            "mode": "exact" if self.exact else "float",
            "m": self.m,
            "x": fmt(self.x),
            "y": fmt(self.y),
            "w": fmt(self.w) if self.w is not None else None,
            "S": [fmt(row) for row in self.s],
            "T": fmt(self.t),
            "N": fmt(self.n_vec),
            "D": format_scalar(self.denom),
            "evaluations": self.evaluations,
        }

    @staticmethod
    def from_dict(payload):
        """The state `to_dict` saved; ValueError if the payload is not an
        object, lacks a key, names another mode than "exact" or "float", holds
        a value of the wrong type, a non-integral degree or an evaluation
        count that is not a non-negative integer, or has a length that
        disagrees with degrees and m, or holds a zero weight, which
        `DataSet` and `update` refuse too.  An "a" key, which snapshots once
        held, is ignored: the coefficients are N / D.  Parsing every value in
        the one mode the payload names checks the restored points' mode."""
        if not isinstance(payload, dict):
            raise ValueError("snapshot is not a JSON object")
        missing = {"degrees", "mode", "m", "x", "y", "S", "T", "N", "D"} - payload.keys()
        if missing:
            raise ValueError(f"snapshot lacks {', '.join(sorted(missing))}")
        if payload["mode"] not in ("exact", "float"):
            raise ValueError(f"snapshot mode {payload['mode']!r} is neither exact nor float")
        try:
            d, m, s = Exponents(payload["degrees"]), payload["m"], payload["S"]
            sizes = {"x": m, "y": m, "w": m, "S": len(d), "T": len(d), "N": len(d)}
            rows = [("S", row) for row in s] if isinstance(s, list) else []
            for key, value in [(k, payload.get(k)) for k in sizes] + rows:
                if (value is not None or key != "w") and not (
                    isinstance(value, list) and len(value) == sizes[key]
                ):
                    raise ValueError(f"snapshot {key} does not fit degrees {list(d)} and m = {m}")
            exact = payload["mode"] == "exact"
            p = lambda text: parse_scalar(text, exact)
            w = [p(v) for v in payload["w"]] if payload.get("w") is not None else None
            if not all(w or ()):
                raise ValueError("snapshot holds a zero weight; weights must be nonzero")
            # JSON's true is no count, although int(True) is 1
            evaluations = payload.get("evaluations", 0)
            if isinstance(evaluations, bool) or as_int(evaluations) < 0:
                raise ValueError(f"snapshot evaluation count {evaluations!r} is not a non-negative integer")
            return RegressionState(
                d=d,
                x=[p(v) for v in payload["x"]],
                y=[p(v) for v in payload["y"]],
                w=w,
                s=[[p(v) for v in row] for row in payload["S"]],
                t=[p(v) for v in payload["T"]],
                n_vec=[p(v) for v in payload["N"]],
                denom=p(payload["D"]),
                evaluations=int(evaluations),
            )
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"snapshot holds a value of the wrong type: {exc}") from exc


def _state(d, x, y, w, lifted, denom, s, t, evaluations):
    """The state of the points x, y and w, their lift and native aggregates,
    with N derived on them and each stored value made a Scalar once.  In
    float mode one test finds every value finite: their sum is finite only
    if each is.  Where it is not, `_checked_numerators` tests them one by
    one and raises OverflowError naming the first of D, S, T and N that is
    not finite, before any state holds it."""
    exact = lifted.exact
    n_vec = _signed_numerators(s, t, 0 if exact else 0.0)
    if not exact and not isfinite(sum(map(sum, s), sum(t, sum(n_vec, denom)))):
        _checked_numerators(denom, s, t, exact)
    s = [[Scalar(v, exact) for v in row] for row in s]
    t, n_vec = [Scalar(v, exact) for v in t], [Scalar(v, exact) for v in n_vec]
    return RegressionState(d, x, y, w, s, t, n_vec, Scalar(denom, exact), evaluations, lifted)


def init_state(d, data=None, *, exact=True):
    """Build a state from an initial batch, or from no points at all.

    The empty stream is the aggregate of zero points, so D and T are zero,
    and so is S except for one-term models, where the empty (n-1)-subset
    gives S = 1.  Coefficient queries error until enough points arrive.
    """
    data = data if data is not None else SimpleNamespace(x=[], y=[], w=None, exact=exact)
    lifted = _kept(d, _lift(data))
    denom, upper, t, evaluations = _aggregates(d, lifted)
    w = None if data.w is None else list(data.w)
    return _state(d, list(data.x), list(data.y), w, lifted, denom, _hermitian(upper, len(d)), t, evaluations)


def _appended(state, x_new, y_new, w_new):
    """The state's points with (x_new, y_new, w_new) last, and their lift with
    fixed = 1: the state's lift extended by the new point alone
    (`regress._extended`), or, where the state has none or the point
    changes how the others lift, a lift of every point.

    ValueError for a zero weight or for a weighted point on an unweighted
    stream or the reverse, and ScalarModeError for an x, y or w of another
    mode than the stream's.  This is where an appended point enters, so it
    is checked here once, before any subset sum, and the lift in `regress`
    trusts it.  A y of None, as `extend_b_matrix` passes, is not checked:
    the points then have no y at all, and the lift lifts none."""
    exact = state.exact
    if (state.w is not None) != (w_new is not None) and state.x:
        raise ValueError("weighted and unweighted points cannot be mixed")
    if w_new is not None and not w_new:
        raise ValueError("weights must be nonzero")
    if x_new.exact is not exact or y_new is not None and y_new.exact is not exact or w_new is not None and w_new.exact is not exact:
        raise ScalarModeError("point does not match the data's numeric mode")
    x, y = state.x + [x_new], None if y_new is None else state.y + [y_new]
    w = None if w_new is None else (state.w or []) + [w_new]
    lifted = state._lifted and _extended(
        state.d, state._lifted, x_new.value, None if w_new is None else w_new.value, None if y_new is None else y_new.value
    )
    return x, y, w, lifted or _kept(state.d, _lift(SimpleNamespace(x=x, y=y, w=w, exact=exact), 1))


def update(state, x_new, y_new, w_new=None):
    """Append one data point and return the refreshed state.

    D, S and T each grow by the new point's increments from
    `regress._aggregates`, summed on the state's lift extended by the point
    (`_appended`), and added to the stored values in one pass: S's lower
    triangle by the conjugates of the upper increments.  N' is re-derived
    from S' and T', and the coefficients are N'_i / D'.  In float mode, a
    D', S', T' or N' beyond the float range raises OverflowError, and so
    does reading a coefficient that is.
    """
    x, y, w, lifted = _appended(state, x_new, y_new, w_new)
    d_inc, r, dt, evals = _aggregates(state.d, lifted)
    n, stored, r = len(state.d), state.s, iter(r)
    s = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rij = next(r)
            s[i][j] = stored[i][j].value + rij
            if j > i:
                s[j][i] = stored[j][i].value + rij.conjugate()
    t = [tj.value + dtj for tj, dtj in zip(state.t, dt)]
    return _state(state.d, x, y, w, lifted, state.denom.value + d_inc, s, t, state.evaluations + evals)


def extend_b_matrix(state, prior_b, x_new, w_new=None):
    """Grow B by the columns of the (n-1)-subsets containing the new point.

    `prior_b` must have been built from the state's current m points.  New
    columns are appended after the existing ones; the shared normalizer moves
    to the enlarged denominator.  A prior B with another column count raises
    ValueError, and so, in exact mode, does one whose D differs from the
    state's; a float stream's D differs from a batch D by rounding, so float
    mode checks the column count only.  The point is refused as `update`
    refuses it: a zero weight, or a weight on an unweighted stream or the
    reverse, raises ValueError, and in float mode a D beyond the float range
    raises OverflowError.
    """
    d, n, m = state.d, len(state.d), state.m
    if len(prior_b.columns) != comb(m, n - 1):
        raise ValueError(
            f"prior B matrix has {len(prior_b.columns)} columns; the state's "
            f"{m} points give C({m}, {n - 1}) = {comb(m, n - 1)}"
        )
    if state.exact and prior_b.denominator_root_sq != state.denom:
        raise ValueError("prior B matrix was built from other points than the state's")

    lifted = _appended(state, x_new, None, w_new)[3]
    new_d = state.denom.value + _sums(d, lifted, with_s=False)[0]
    new_d = Scalar(_finite("the denominator D", [new_d], state.exact)[0], state.exact)
    entries = [list(row) for row in prior_b.entries]
    if not state.exact:
        rescale = prior_b.denominator_root / sqrt(float(new_d.re))
        entries = [[Scalar(v.value * rescale, False) for v in row] for row in entries]
    b = BMatrix(entries=entries, columns=list(prior_b.columns), denominator_root_sq=new_d)
    _append_b_columns(b, d, lifted)
    return b
