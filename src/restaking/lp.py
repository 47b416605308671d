"""Minimal linear programming kernel: a dense bounded-variable simplex.

The form is ``A x - r = 0``, ``L <= (x, r) <= U``: row activities r are the
logical columns, so the tableau ``B^-1 [A | -I]`` has one row per
constraint, bounds are handled in the ratio tests, and an ``==`` row is a
row whose logical is fixed. A cold solve starts from the logical basis with
each column at the bound its cost favours, which is dual feasible once
columns unbounded on that side are priced at 0; the dual simplex (with
bound flipping) then reaches primal feasibility without a phase 1, and a
bounded primal simplex with the true costs finishes and detects
unboundedness. A warm solve (``start=``) copies an earlier solve's final
tableau and pins columns (``fix=``), which keeps it dual feasible.

Pivoting is deterministic (identical input, bit-identical output) and falls
back to Bland's rule after a run of degenerate pivots, so it terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .model import InputError

__all__ = ["LpProblem", "LpSolution", "solve_lp", "OPTIMAL", "INFEASIBLE", "UNBOUNDED"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Pivot / feasibility / optimality tolerances; instances are small and well-scaled.
_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8
_DUAL_TOL = 1e-9
# Degenerate pivots in a row before Bland's rule takes over for the pass.
_DEGENERATE_RUN = 50


@dataclass
class LpProblem:
    """min or max of objective @ x subject to row constraints and bounds.

    constraints: list of (coefficients, relation, rhs) with relation in
    {"<=", ">=", "=="}. bounds: per-variable (lo, hi); hi may be None for
    unbounded above; lo must be finite. Default bound is (0, None).
    """

    objective: Sequence[float]
    sense: str = "min"
    constraints: list[tuple[Sequence[float], str, float]] = field(default_factory=list)
    bounds: list[tuple[float, float | None]] | None = None

    def n_variables(self) -> int:
        return len(self.objective)


@dataclass
class _Tableau:
    """Simplex state over the n structural columns followed by the m logicals."""

    t: np.ndarray  # B^-1 [A | -I], one row per constraint
    basis: np.ndarray  # column basic in each row
    x: np.ndarray  # column values; nonbasic ones sit exactly at a bound
    lo: np.ndarray
    hi: np.ndarray
    cost: np.ndarray  # minimization costs, 0 on the logicals
    d: np.ndarray  # reduced costs
    # +1 at the lower bound, -1 at the upper: the way a nonbasic column may
    # move; 0 for basic and fixed columns.
    side: np.ndarray

    def copy(self) -> _Tableau:
        return _Tableau(self.t.copy(), self.basis.copy(), self.x.copy(), self.lo.copy(),
                        self.hi.copy(), self.cost, self.d.copy(), self.side.copy())

    def park(self, j: int, value: float) -> None:
        """Put nonbasic column j exactly at its bound value."""
        self.x[j] = value
        self.side[j] = 0.0 if self.lo[j] == self.hi[j] else (1.0 if value == self.lo[j] else -1.0)

    def move(self, cols, steps) -> None:
        """Change nonbasic columns by steps; the basic columns follow."""
        self.x[self.basis] -= self.t[:, cols] @ steps if np.ndim(cols) else self.t[:, cols] * steps
        self.x[cols] += steps

    def pivot(self, row: int, col: int, leaving_value: float) -> None:
        self.park(int(self.basis[row]), leaving_value)
        self.side[col] = 0.0
        t = self.t
        prow = t[row] / t[row, col]
        t -= t[:, col, None] * prow
        t[row] = prow
        self.d -= self.d[col] * prow
        self.basis[row] = col


@dataclass
class LpSolution:
    status: str
    values: np.ndarray | None = None
    objective_value: float | None = None
    # Final simplex state of an optimal solve, the warm start of a later one.
    tableau: _Tableau | None = field(default=None, repr=False, compare=False)


def _pick(ratios: np.ndarray, weights: np.ndarray, ids: np.ndarray, bland: bool) -> int:
    """Position of the least ratio; ties go to the largest weight (the most
    stable pivot), or under Bland's rule to the lowest id."""
    tied = (ratios <= ratios.min() + _PIVOT_TOL).nonzero()[0]
    return int(tied[ids[tied].argmin()] if bland else tied[weights[tied].argmax()])


def _dual(s: _Tableau) -> bool:
    """Dual simplex to primal feasibility; False when the rows are infeasible."""
    t = s.t
    degenerate = 0
    while t.shape[0]:
        xb, lo, hi = s.x[s.basis], s.lo[s.basis], s.hi[s.basis]
        infeas = np.maximum(lo - xb, xb - hi)
        bland = degenerate >= _DEGENERATE_RUN
        if bland:
            rows = (infeas > _FEAS_TOL).nonzero()[0]
            r = int(rows[s.basis[rows].argmin()]) if rows.size else 0
        else:
            r = int(infeas.argmax())
        if infeas[r] <= _FEAS_TOL:
            break
        below = xb[r] < lo[r]
        bound = lo[r] if below else hi[r]
        # The leaving column moves by -t[r, j] per unit step of column j;
        # the candidates move it toward the violated bound.
        a = t[r] if below else -t[r]
        cand = (s.side * a < -_PIVOT_TOL).nonzero()[0]
        size = np.abs(a[cand])
        ratios = np.abs(s.d[cand]) / size
        order = ratios.argsort(kind="stable")
        reach = (size * (s.hi[cand] - s.lo[cand]))[order].cumsum() >= infeas[r] - _FEAS_TOL
        if not cand.size or not reach[-1]:
            return False  # no combination of bounds makes the row feasible
        # Bound-flipping ratio test (not under Bland's rule): pass each
        # breakpoint whose column can flip to its other bound with the row
        # still infeasible; the column at which it would not enters.
        first = 0 if bland else int(reach.argmax())
        if first:
            flips = cand[order[:first]]
            s.move(flips, s.side[flips] * (s.hi[flips] - s.lo[flips]))
            s.side[flips] *= -1.0
        rest = order[first:]
        k = int(rest[_pick(ratios[rest], size[rest], cand[rest], bland)])
        degenerate = degenerate + 1 if ratios[k] <= _DUAL_TOL else 0
        q = int(cand[k])
        s.move(q, (s.x[s.basis[r]] - bound) / t[r, q])
        s.pivot(r, q, bound)
    return True


def _primal(s: _Tableau) -> bool:
    """Bounded primal simplex from a feasible basis; False when unbounded."""
    degenerate = 0
    while True:
        cand = (s.side * s.d < -_DUAL_TOL).nonzero()[0]
        if not cand.size:
            return True
        bland = degenerate >= _DEGENERATE_RUN
        q = int(cand[0] if bland else cand[np.abs(s.d[cand]).argmax()])
        direction = s.side[q]
        col = s.t[:, q] * direction  # basic columns move by -col per unit step
        xb, lo, hi = s.x[s.basis], s.lo[s.basis], s.hi[s.basis]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(col > _PIVOT_TOL, (xb - lo) / col,
                              np.where(col < -_PIVOT_TOL, (hi - xb) / -col, np.inf))
        ratios = np.maximum(ratios, 0.0)
        step = s.hi[q] - s.lo[q]  # a bound flip, unless a basic column stops first
        r = -1
        if ratios.size and ratios.min() < step:
            r = _pick(ratios, np.abs(col), s.basis, bland)
            step = ratios[r]
        if not np.isfinite(step):
            return False
        degenerate = degenerate + 1 if step <= _FEAS_TOL else 0
        s.move(q, direction * step)
        if r < 0:
            s.park(q, s.hi[q] if direction > 0 else s.lo[q])
        else:
            s.pivot(r, q, lo[r] if col[r] > 0 else hi[r])


def _cold(problem: LpProblem, sign: float) -> _Tableau:
    """Validated matrix form at the logical basis, priced for the dual simplex."""
    n = problem.n_variables()
    for coeffs, rel, _ in problem.constraints:
        if len(coeffs) != n:
            raise InputError("constraint row length does not match objective")
        if rel not in ("<=", ">=", "=="):
            raise InputError(f"unknown relation {rel!r}")
    bounds = problem.bounds or [(0.0, None)] * n
    if len(bounds) != n:
        raise InputError("bounds length does not match objective")
    for lo, hi in bounds:
        if lo is None or not np.isfinite(lo):
            raise InputError("lower bounds must be finite")
        if hi is not None and hi < lo:
            raise InputError("bound with hi < lo")

    m = len(problem.constraints)
    a = np.array([coeffs for coeffs, _, _ in problem.constraints], dtype=float).reshape(m, n)
    rel = np.array([r for _, r, _ in problem.constraints], dtype=object)
    rhs = np.array([b for _, _, b in problem.constraints], dtype=float)
    lo = np.concatenate([np.array([b[0] for b in bounds], dtype=float),
                         np.where(rel == "<=", -np.inf, rhs)])
    hi = np.concatenate([np.array([np.inf if b[1] is None else b[1] for b in bounds], dtype=float),
                         np.where(rel == ">=", np.inf, rhs)])
    cost = np.concatenate([sign * np.asarray(problem.objective, dtype=float), np.zeros(m)])
    rising = cost < 0
    upper = rising & np.isfinite(hi)
    x = np.where(upper, hi, lo)
    x[n:] = a @ x[:n]
    side = np.where(upper, -1.0, 1.0)
    side[lo == hi] = 0.0
    side[n:] = 0.0
    # A column that gains without limit is priced at 0 until the primal pass.
    d = np.where(rising & ~upper, 0.0, cost)
    return _Tableau(t=np.hstack([-a, np.eye(m)]), basis=np.arange(n, n + m), x=x,
                    lo=lo, hi=hi, cost=cost, d=d, side=side)


def solve_lp(problem: LpProblem, *, start: LpSolution | None = None,
             fix: Mapping[int, float] | None = None) -> LpSolution:
    """Solve a linear program; deterministic for identical input.

    start: an optimal solution of a program with the same rows and objective
    whose bounds are at least as loose; its final tableau is the warm start
    and problem's rows and bounds are not read again. fix: column -> value,
    pinned on top of the bounds.
    """
    if problem.sense not in ("min", "max"):
        raise InputError(f"unknown sense {problem.sense!r}")
    sign = 1.0 if problem.sense == "min" else -1.0
    s = _cold(problem, sign) if start is None else start.tableau.copy()
    if fix:
        cols = np.fromiter(fix, dtype=int, count=len(fix))
        vals = np.fromiter(fix.values(), dtype=float, count=len(fix))
        s.lo[cols] = s.hi[cols] = vals
        s.side[cols] = 0.0
        free = np.ones(s.x.size, dtype=bool)
        free[s.basis] = False
        free = free[cols]
        s.move(cols[free], vals[free] - s.x[cols[free]])
    if not _dual(s):
        return LpSolution(status=INFEASIBLE)
    s.d = s.cost - s.cost[s.basis] @ s.t
    s.d[s.basis] = 0.0
    if not _primal(s):
        return LpSolution(status=UNBOUNDED)
    n = problem.n_variables()
    values = s.x[:n].copy()
    objective = sign * float(s.cost[:n] @ values)
    return LpSolution(status=OPTIMAL, values=values, objective_value=objective, tableau=s)
