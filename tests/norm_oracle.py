"""The norm oracle: a dense primal simplex inside a constraint-generation loop.

This is the norm solver ``lipfree.freespace.free_norm`` used before it became
relay pruning plus one HiGHS solve; it shares no solver with that path.
:func:`oracle_free_norm` builds its distances pair by pair with
``Molecule.point_distance`` and checks every pair, pruned or not, so it also
checks the relay pruning.  Its violation tolerance is absolute
(``NORM_TOL * max(1, largest distance)``), so compare with it at unit scale.

:func:`solve_box_lp` solves

    maximize    c . x
    subject to  A x <= b,    l <= x <= u.

Slack variables are appended internally and the basis inverse is kept
explicitly and refreshed periodically.  The entering choice is steepest
reduced cost (ties to the smallest index) while the objective keeps moving;
after a stretch of degenerate pivots the pricing switches to Bland's
smallest-index rule, whose ratio-test tie-breaking is also by smallest
index, so cycling is impossible.  A hard iteration cap guards against
numerical stall on top of that.

The solver starts from the all-lower-bound point and therefore requires
``A l <= b``.  The Lipschitz dual programs of :func:`oracle_free_norm`
always satisfy this (it is the triangle inequality), so no phase-1 is needed
or implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lipfree.freespace import NORM_TOL, Molecule

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2

# Refresh the explicit basis inverse this often to bound drift.
_REFACTOR_EVERY = 100


class SimplexError(RuntimeError):
    """Raised on unbounded programs, infeasible starts, or numerical stall."""


@dataclass
class LpResult:
    x: np.ndarray
    objective: float
    iterations: int


def solve_box_lp(c, A, b, lower, upper, *, tol: float = 1e-9, max_iter: int | None = None,
                 start_at_upper=None) -> LpResult:
    c = np.asarray(c, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = c.size
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError("bounds must match the number of variables")
    if np.any(lower > upper):
        raise ValueError("some lower bound exceeds its upper bound")
    if A is None:
        A = np.zeros((0, n))
    A = np.ascontiguousarray(A, dtype=float).reshape(-1, n)
    b = np.asarray(b, dtype=float).reshape(-1)
    m = A.shape[0]
    if b.shape != (m,):
        raise ValueError("right-hand side must match the number of rows")

    if m == 0:
        if np.any((c > tol) & ~np.isfinite(upper)):
            raise SimplexError("unbounded: positive objective on a variable without upper bound")
        x = np.where(c > 0, upper, lower)
        return LpResult(x=x, objective=float(c @ x), iterations=0)

    scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0)

    # Optional warm start: a caller-proposed bound assignment, used only when
    # it is itself feasible; otherwise the guaranteed all-lower start.
    x0 = lower.copy()
    if start_at_upper is not None:
        proposal = np.where(np.asarray(start_at_upper, dtype=bool) & np.isfinite(upper), upper, lower)
        if np.min(b - A @ proposal) >= -tol * scale:
            x0 = proposal
    s0 = b - A @ x0
    if np.min(s0) < -tol * scale:
        raise SimplexError("the all-lower-bound start is not feasible for A x <= b")

    total = n + m
    cc = np.concatenate([c, np.zeros(m)])
    lo = np.concatenate([lower, np.zeros(m)])
    hi = np.concatenate([upper, np.full(m, np.inf)])
    status = np.where(x0 == upper, _AT_UPPER, _AT_LOWER).astype(np.int8)
    status = np.concatenate([status, np.full(m, _BASIC, dtype=np.int8)])
    values = np.concatenate([x0, np.maximum(s0, 0.0)])
    basis = np.arange(n, total)
    binv = np.eye(m)

    def column(j: int) -> np.ndarray:
        if j < n:
            return A[:, j]
        e = np.zeros(m)
        e[j - n] = 1.0
        return e

    def refresh():
        nonlocal binv
        bmat = np.zeros((m, m))
        struct = basis < n
        if np.any(struct):
            bmat[:, struct] = A[:, basis[struct]]
        slack_pos = np.nonzero(~struct)[0]
        bmat[basis[slack_pos] - n, slack_pos] = 1.0
        try:
            binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError as exc:
            raise SimplexError("basis became singular") from exc
        nonbasic = status != _BASIC
        resid = b - A @ (values[:n] * nonbasic[:n]) - values[n:] * nonbasic[n:]
        values[basis] = binv @ resid

    if max_iter is None:
        max_iter = 2000 + 40 * total
    ptol = 1e-11
    stall_limit = 2 * m + 20

    iters = 0
    stalled = 0
    bland = False
    last_objective = -np.inf
    while True:
        if iters > max_iter:
            raise SimplexError(f"iteration cap {max_iter} exceeded")
        iters += 1

        y = cc[basis] @ binv
        reduced = cc - np.concatenate([y @ A, y])
        eligible = ((status == _AT_LOWER) & (reduced > tol)) | ((status == _AT_UPPER) & (reduced < -tol))
        idx = np.nonzero(eligible)[0]
        if idx.size == 0:
            break
        if not bland:
            objective = float(c @ values[:n])
            stalled = 0 if objective > last_objective + tol else stalled + 1
            last_objective = max(last_objective, objective)
            if stalled > stall_limit:
                bland = True  # degenerate stretch: fall back to the anti-cycling rule
        if bland:
            j = int(idx[0])  # smallest eligible index enters
        else:
            gains = np.abs(reduced[idx])
            j = int(idx[int(np.argmax(gains))])  # steepest; argmax ties to smallest
        sigma = 1.0 if status[j] == _AT_LOWER else -1.0
        d = binv @ column(j)

        # Largest step t >= 0 moving x_j by sigma * t; basics move by -sigma*t*d.
        flip_t = hi[j] - lo[j]
        delta = sigma * d
        vb = values[basis]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_low = np.where(delta > ptol, np.maximum(vb - lo[basis], 0.0) / delta, np.inf)
            t_up = np.where(delta < -ptol, np.maximum(hi[basis] - vb, 0.0) / (-delta), np.inf)
        hits_lower = t_low <= t_up
        t_all = np.where(hits_lower, t_low, t_up)

        row_min = float(np.min(t_all)) if m else np.inf
        best_t = min(row_min, flip_t)
        if not np.isfinite(best_t):
            raise SimplexError("unbounded program")

        leave_pos = -1
        leave_side = _AT_LOWER
        if row_min <= best_t + ptol:
            tied = np.nonzero(t_all <= best_t + ptol)[0]
            pos = int(tied[np.argmin(basis[tied])])
            # Bland among ties: the bound flip counts with the entering index.
            if not (flip_t <= best_t + ptol and j < int(basis[pos])):
                leave_pos = pos
                leave_side = _AT_LOWER if hits_lower[pos] else _AT_UPPER
                best_t = float(t_all[pos])

        t = max(best_t, 0.0)
        values[basis] = vb - sigma * t * d
        if leave_pos == -1:
            # Bound flip: the entering variable traverses to its other bound.
            values[j] = hi[j] if status[j] == _AT_LOWER else lo[j]
            status[j] = _AT_UPPER if status[j] == _AT_LOWER else _AT_LOWER
            continue

        entering_from = lo[j] if status[j] == _AT_LOWER else hi[j]
        lv = int(basis[leave_pos])
        values[lv] = lo[lv] if leave_side == _AT_LOWER else hi[lv]
        status[lv] = leave_side
        basis[leave_pos] = j
        status[j] = _BASIC
        values[j] = entering_from + sigma * t

        if abs(d[leave_pos]) < ptol:
            refresh()
            continue
        # Rank-one update of the explicit inverse.
        pivot_row = binv[leave_pos] / d[leave_pos]
        binv = binv - np.outer(d, pivot_row)
        binv[leave_pos] = pivot_row
        if iters % _REFACTOR_EVERY == 0:
            refresh()

    x = values[:n].copy()
    return LpResult(x=x, objective=float(c @ x), iterations=iters)


def oracle_free_norm(mu: Molecule) -> tuple[float, dict]:
    """The norm of ``mu`` and the witness on ``origin + support``.

    Maximizes the pairing over functions on ``support + origin`` that vanish
    at the origin and have all difference quotients at most one.  Pair
    constraints are generated lazily and enter only if violated, so the
    working program stays near the size of the active set.  Origin
    constraints become the variable bounds, making the all-lower start
    feasible by the triangle inequality.
    """
    pts = [mu.origin_point()] + list(mu.support)
    if mu.is_zero:
        return 0.0, {} if pts[0] is None else {pts[0]: 0.0}
    coeffs = np.asarray(mu.coefficients)
    k = len(pts) - 1
    d = np.zeros((k + 1, k + 1))
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            d[i, j] = d[j, i] = mu.point_distance(pts[i], pts[j])
    scale = max(1.0, float(np.max(d)))
    vtol = NORM_TOL * scale
    candidates = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]

    lower = -d[0, 1:]
    upper = d[0, 1:].copy()

    rows: list[tuple[int, int]] = []
    present: set[tuple[int, int]] = set()

    def add_row(i: int, j: int) -> None:
        if (i, j) not in present:
            present.add((i, j))
            rows.append((i, j))

    # Seed with each point's nearest partner.
    by_point: dict[int, list[tuple[float, int, int]]] = {}
    for i, j in candidates:
        by_point.setdefault(i, []).append((d[i, j], i, j))
        by_point.setdefault(j, []).append((d[i, j], i, j))
    for i in sorted(by_point):
        _, a, b = min(by_point[i])
        add_row(a, b)
        add_row(b, a)

    result = None
    warm = None
    max_rounds = 4 * k + 16
    for round_no in range(max_rounds):
        if rows:
            a_mat = np.zeros((len(rows), k))
            b_vec = np.empty(len(rows))
            for r, (i, j) in enumerate(rows):
                a_mat[r, i - 1] = 1.0
                a_mat[r, j - 1] = -1.0
                b_vec[r] = d[i, j]
        else:
            a_mat, b_vec = None, []
        result = solve_box_lp(coeffs, a_mat, b_vec, lower, upper, tol=NORM_TOL, start_at_upper=warm)
        f = result.x
        warm = f > 0.5 * (lower + upper)
        violated: list[tuple[float, int, int]] = []
        for i, j in candidates:
            gap = f[i - 1] - f[j - 1]
            if gap > d[i, j] + vtol:
                violated.append((gap - d[i, j], i, j))
            elif -gap > d[i, j] + vtol:
                violated.append((-gap - d[i, j], j, i))
        if not violated:
            break
        if rows and round_no < 10:
            # Drop rows that came out slack; they re-enter if ever violated.
            slack = b_vec - a_mat @ f
            kept = [rows[r] for r in range(len(rows)) if slack[r] <= vtol + 1e-7 * scale]
            rows = kept
            present = set(rows)
        violated.sort(key=lambda t: (-t[0], t[1], t[2]))
        for _, i, j in violated[: max(4 * k, 64)]:
            add_row(i, j)
    else:
        raise SimplexError("constraint generation did not converge")

    witness = {pts[0]: 0.0}
    witness.update(zip(pts[1:], result.x.tolist()))
    return max(float(result.objective), 0.0), witness
