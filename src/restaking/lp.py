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

State: one array holds the tableau with the reduced costs as its last row,
so a pivot is one rank-1 update of both; column values, bounds, sides and
the basis are Python lists. An iteration reads one row or column of the
array with ``tolist`` and scans it on Python floats, as a numpy call costs
more than its arithmetic on a few rows and a few dozen columns.

Pivoting is deterministic (identical input, bit-identical output) and falls
back to Bland's rule after a run of degenerate pivots, so it terminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
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

    t: np.ndarray  # B^-1 [A | -I], one row per constraint, then the reduced costs
    basis: list[int]  # column basic in each row
    x: list[float]  # column values; nonbasic ones sit exactly at a bound
    lo: list[float]
    hi: list[float]
    cost: np.ndarray  # minimization costs, 0 on the logicals
    # +1 at the lower bound, -1 at the upper: the way a nonbasic column may
    # move; 0 for basic and fixed columns.
    side: list[float]

    def copy(self) -> _Tableau:
        return _Tableau(self.t.copy(), self.basis[:], self.x[:], self.lo[:], self.hi[:],
                        self.cost, self.side[:])

    def park(self, j: int, value: float) -> None:
        """Put nonbasic column j exactly at its bound value."""
        self.x[j] = value
        self.side[j] = 0.0 if self.lo[j] == self.hi[j] else (1.0 if value == self.lo[j] else -1.0)

    def move(self, cols, steps) -> None:
        """Change nonbasic columns (one, or a list) by steps; the basic columns follow."""
        x = self.x
        if isinstance(cols, list):
            shifts = (self.t[:-1, cols] @ np.array(steps, dtype=float)).tolist()
            for j, step in zip(cols, steps):
                x[j] += step
        else:
            shifts = [a * steps for a in self.t[:-1, cols].tolist()]
            x[cols] += steps
        for b, shift in zip(self.basis, shifts):
            x[b] -= shift

    def pivot(self, row: int, col: int, element: float, leaving_value: float) -> None:
        """Make col basic in row, whose entry in col is element."""
        self.park(self.basis[row], leaving_value)
        self.side[col] = 0.0
        t = self.t
        prow = t[row] / element
        t -= t[:, col, None] * prow
        t[row] = prow
        self.basis[row] = col


@dataclass
class LpSolution:
    status: str
    values: np.ndarray | None = None
    objective_value: float | None = None
    # Final simplex state of an optimal solve, the warm start of a later one.
    tableau: _Tableau | None = field(default=None, repr=False, compare=False)


def _dual(s: _Tableau) -> bool:
    """Dual simplex to primal feasibility; False when the rows are infeasible."""
    t, basis, x, lo, hi, side = s.t, s.basis, s.x, s.lo, s.hi, s.side
    degenerate = 0
    while basis:
        bland = degenerate >= _DEGENERATE_RUN
        # The most infeasible row (the first on ties), or under Bland's rule
        # the infeasible row whose basic column has the lowest id.
        r, worst = -1, _FEAS_TOL
        for i, b in enumerate(basis):
            gap, over = lo[b] - x[b], x[b] - hi[b]
            if over > gap:
                gap = over
            if gap > _FEAS_TOL and (r < 0 or (b < basis[r] if bland else gap > worst)):
                r, worst = i, gap
        if r < 0:
            break
        leaving = basis[r]
        below = x[leaving] < lo[leaving]
        bound = lo[leaving] if below else hi[leaving]
        row, d = t[r].tolist(), t[-1].tolist()
        # The leaving column moves by -t[r, j] per unit step of column j;
        # the candidates move it toward the violated bound. Their breakpoints
        # (ratio, column, |t[r, j]|) are sorted by ratio, ties by column.
        moves = enumerate(map(mul, side, row))
        cand = ([j for j, v in moves if v < -_PIVOT_TOL] if below
                else [j for j, v in moves if v > _PIVOT_TOL])
        breaks = sorted((abs(d[j]) / abs(row[j]), j, abs(row[j])) for j in cand)
        # Bound-flipping ratio test (not under Bland's rule): pass each
        # breakpoint whose column can flip to its other bound with the row
        # still infeasible; the column at which it would not enters.
        reach = 0.0
        for first, (_, j, size) in enumerate(breaks):
            reach += size * (hi[j] - lo[j])
            if reach >= worst - _FEAS_TOL:
                break
        else:
            return False  # no combination of bounds makes the row feasible
        first = 0 if bland else first
        if first:
            flips = [j for _, j, _ in breaks[:first]]
            s.move(flips, [side[j] * (hi[j] - lo[j]) for j in flips])
            for j in flips:
                side[j] = -side[j]
        # Of the breakpoints left within _PIVOT_TOL of the least (a run, as
        # they are sorted), the largest |t[r, j]| enters, the first on ties,
        # or under Bland's rule the lowest column.
        ratio, q, size = breaks[first]
        for later in breaks[first + 1:]:
            if later[0] > breaks[first][0] + _PIVOT_TOL:
                break
            if (later[1] < q) if bland else (later[2] > size):
                ratio, q, size = later
        degenerate = degenerate + 1 if ratio <= _DUAL_TOL else 0
        s.move(q, (x[leaving] - bound) / row[q])
        s.pivot(r, q, row[q], bound)
    return True


def _primal(s: _Tableau) -> bool:
    """Bounded primal simplex from a feasible basis; False when unbounded."""
    t, basis, x, lo, hi, side = s.t, s.basis, s.x, s.lo, s.hi, s.side
    degenerate = 0
    while True:
        d = t[-1].tolist()
        cand = [j for j, v in enumerate(map(mul, side, d)) if v < -_DUAL_TOL]
        if not cand:
            return True
        bland = degenerate >= _DEGENERATE_RUN
        q = cand[0] if bland else max(cand, key=lambda j: abs(d[j]))
        direction = side[q]
        col = [a * direction for a in t[:-1, q].tolist()]  # basic columns move by -col per unit step
        ratios = [max((x[b] - lo[b]) / c, 0.0) if c > _PIVOT_TOL
                  else max((hi[b] - x[b]) / -c, 0.0) if c < -_PIVOT_TOL else math.inf
                  for c, b in zip(col, basis)]
        step = hi[q] - lo[q]  # a bound flip, unless a basic column stops first
        r = -1
        if ratios and min(ratios) < step:
            # A row of least ratio leaves: on ties the largest |col| (the most
            # stable pivot), or under Bland's rule the lowest basic column.
            least = min(ratios) + _PIVOT_TOL
            tied = [i for i, ratio in enumerate(ratios) if ratio <= least]
            r = min(tied, key=basis.__getitem__) if bland else max(tied, key=lambda i: abs(col[i]))
            step = ratios[r]
        if not math.isfinite(step):
            return False
        degenerate = degenerate + 1 if step <= _FEAS_TOL else 0
        s.move(q, direction * step)
        if r < 0:
            s.park(q, hi[q] if direction > 0 else lo[q])
        else:
            s.pivot(r, q, col[r] * direction, lo[basis[r]] if col[r] > 0 else hi[basis[r]])


def _cold(problem: LpProblem, sign: float) -> _Tableau:
    """Validated matrix form at the logical basis, priced for the dual simplex."""
    n, m = problem.n_variables(), len(problem.constraints)
    row_lo, row_hi = [], []
    for coeffs, rel, rhs in problem.constraints:
        if len(coeffs) != n:
            raise InputError("constraint row length does not match objective")
        if rel not in ("<=", ">=", "=="):
            raise InputError(f"unknown relation {rel!r}")
        row_lo.append(-math.inf if rel == "<=" else float(rhs))
        row_hi.append(math.inf if rel == ">=" else float(rhs))
    bounds = problem.bounds or [(0.0, None)] * n
    if len(bounds) != n:
        raise InputError("bounds length does not match objective")
    lo, hi = [], []
    for low, high in bounds:
        if low is None or not math.isfinite(low):
            raise InputError("lower bounds must be finite")
        if high is not None and high < low:
            raise InputError("bound with hi < lo")
        lo.append(float(low))
        hi.append(math.inf if high is None else float(high))
    cost = [sign * float(c) for c in problem.objective]
    x, side, d = [], [], []
    for c, low, high in zip(cost, lo, hi):
        upper = c < 0 and math.isfinite(high)
        x.append(high if upper else low)
        side.append(0.0 if low == high else (-1.0 if upper else 1.0))
        # A column that gains without limit is priced at 0 until the primal pass.
        d.append(0.0 if c < 0 and not upper else c)
    a = np.array([coeffs for coeffs, _, _ in problem.constraints], dtype=float).reshape(m, n)
    t = np.zeros((m + 1, n + m))
    t[:m, :n], t[:m, n:], t[m, :n] = -a, np.eye(m), d
    return _Tableau(t=t, basis=list(range(n, n + m)), x=x + (a @ np.array(x)).tolist(),
                    lo=lo + row_lo, hi=hi + row_hi, cost=np.array(cost + [0.0] * m),
                    side=side + [0.0] * m)


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
        cols, steps = [], []
        for j, value in fix.items():
            s.lo[j] = s.hi[j] = value = float(value)
            s.side[j] = 0.0
            if j not in s.basis:
                cols.append(j)
                steps.append(value - s.x[j])
        # One column, as a branching fix pins, takes the scalar path: the
        # same bits as the matmul for less overhead.
        if len(cols) == 1:
            s.move(cols[0], steps[0])
        else:
            s.move(cols, steps)
    if not _dual(s):
        return LpSolution(status=INFEASIBLE)
    s.t[-1] = s.cost - s.cost.take(s.basis) @ s.t[:-1]
    s.t[-1, s.basis] = 0.0
    if not _primal(s):
        return LpSolution(status=UNBOUNDED)
    n = problem.n_variables()
    values = np.array(s.x[:n])
    objective = sign * float(s.cost[:n] @ values)
    return LpSolution(status=OPTIMAL, values=values, objective_value=objective, tableau=s)
