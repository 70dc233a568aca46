"""The per-level decomposition report, kept as the oracle of the array report.

:func:`oracle_report` is the form that :func:`lipfree.freespace.decomposition_report`
replaced: level by level it builds the projection with
:func:`lipfree.freespace.molecule_projection` and the error with
``Molecule.minus``, sizes both, solves every norm through
:func:`lipfree.freespace.free_norms`, sums the decay estimate term by term
(:func:`projection_estimate`) and checks the lattice on a dict of projection
molecules (:func:`dict_lattice_ok`).  :func:`lattice_arrays` lays such a dict
out as the rows that the array lattice check reads.
"""

import numpy as np

from lipfree.freespace import (FDD_TOL, LATTICE_TOL, MAX_LEVEL, FddReport, FddRow, Molecule, _check_norm_size,
                               free_norms, molecule_projection)
from lipfree.geometry import SparseBatch, pack_key_rows
from lipfree.operators import GridLevel, TooManyCorners, _decay_estimates, _stack_points, cell_weights


def projection_estimate(mu: Molecule, n: int) -> tuple[float, bool]:
    """The duality transcription of the pointwise decay estimate at unit
    constant, summed in term order, and whether the clamp onto the big cube
    moves some support point."""
    level = GridLevel(n, mu.dim)
    support = SparseBatch.of(mu.support) if mu.kind == "l1" else mu.support
    bounds, clamped = (a[:, 0] for a in _decay_estimates(support, _stack_points(support, level), mu.dim, [n]))
    total = 0.0
    for a, b in zip(mu.coefficients, bounds.tolist()):
        total += abs(a) * b
    return total, bool(clamped.any())


def _stacked_cell_weights(rows, bounds, level):
    """:func:`cell_weights` of the stacked support rows of several molecules,
    molecule ``k`` being ``rows[bounds[k]:bounds[k + 1]]``; a stack past the
    corner cap is expanded one molecule at a time."""
    try:
        return cell_weights(rows, level)
    except TooManyCorners:
        spans = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        r, k, w = zip(*(cell_weights(rows[lo:hi], level) for lo, hi in spans))
        return np.concatenate([ri + lo for ri, (lo, _) in zip(r, spans)]), np.concatenate(k), np.concatenate(w)


def dict_lattice_ok(projections: dict) -> bool:
    """The lattice check on ``{level: projection molecule}``: per target level
    ``m``, one :func:`cell_weights` call on the stacked supports of all
    levels, the expected side by exact level-``m`` keys, and one
    ``np.unique`` and ``bincount`` over ``(m, n, key)``."""
    levels = sorted(projections)
    first = projections[levels[0]]
    sizes = [len(projections[n].terms) for n in levels]
    bounds = np.cumsum([0] + sizes)
    span = {n: np.arange(lo, hi) for n, lo, hi in zip(levels, bounds, bounds[1:])}
    support = [p for n in levels for p in projections[n].support]
    if not support:
        return True
    mass = np.array([a for n in levels for a in projections[n].coefficients])
    level_of = np.repeat(levels, sizes)
    coords = _stack_points(support, GridLevel(levels[-1], first.dim))
    groups, masses = [], []
    for m in levels:
        level = GridLevel(m, first.dim)
        d = level.cell_dim
        rows, keys, weights = _stacked_cell_weights(coords[:, :d], bounds, level)
        keep = (keys != 1 << (2 * m - 2)).any(axis=1)
        expect = np.concatenate([span[min(m, n)] for n in levels])
        scaled = (coords[expect, :d] + 2.0 ** (m - 1)) * 2.0 ** (m - 1)
        if np.any(coords[expect, d:]) or np.any(scaled != np.floor(scaled)):
            return False
        tags = np.concatenate([level_of[rows[keep]], np.repeat(levels, [len(span[min(m, n)]) for n in levels])])
        key_rows = np.zeros((len(tags), 2 + coords.shape[1]), dtype=np.int64)
        key_rows[:, 0], key_rows[:, 1] = m, tags
        key_rows[:, 2:2 + d] = np.concatenate([keys[keep], scaled.astype(np.int64)])
        groups.append(key_rows)
        masses.append(np.concatenate([mass[rows[keep]] * weights[keep], -mass[expect]]))
    _, group_of = np.unique(pack_key_rows(np.concatenate(groups)), return_inverse=True)
    return bool(np.all(np.abs(np.bincount(group_of, weights=np.concatenate(masses))) <= LATTICE_TOL))


def lattice_arrays(projections: dict):
    """``{level: projection molecule}`` for levels ``1..n_max`` as the
    arguments of :func:`lipfree.freespace._lattice_ok`."""
    n_max = max(projections)
    first = projections[n_max]
    support = [p for n in sorted(projections) for p in projections[n].support]
    coords = _stack_points(support, GridLevel(n_max, first.dim)).reshape(len(support), -1)
    mass = np.array([a for n in sorted(projections) for a in projections[n].coefficients], dtype=float)
    level_of = np.repeat(sorted(projections), [len(projections[n].terms) for n in sorted(projections)])
    return coords, mass, level_of, n_max, first.dim


def oracle_report(mu: Molecule, n_max: int) -> FddReport:
    """The decomposition report, one molecule per level."""
    if not (1 <= n_max <= MAX_LEVEL):
        raise ValueError(f"n_max must be in 1..{MAX_LEVEL}, got {n_max}")
    projections, errors = {}, {}
    for n in range(1, n_max + 1):
        projections[n] = molecule_projection(mu, n)
        errors[n] = projections[n].minus(mu)
        _check_norm_size(len(projections[n].terms), f"the level-{n} projection")
        _check_norm_size(len(errors[n].terms), f"the level-{n} projection error")
    certs = free_norms([mu, *projections.values(), *errors.values()])
    rows = []
    for n, proj in projections.items():
        err_value = certs[n_max + n].value
        bound, clamped = projection_estimate(mu, n)
        bound_ok = None if clamped else bool(err_value <= bound + FDD_TOL * max(1.0, bound))
        rows.append(FddRow(n=n, norm_value=certs[n].value, err_value=err_value, bound=bound,
                           support_size=len(proj.terms), clamped=clamped, bound_ok=bound_ok))
    base = certs[0].value
    return FddReport(base_norm=base, rows=tuple(rows),
                     monotone_ok=all(r.norm_value <= base * (1.0 + FDD_TOL) + FDD_TOL for r in rows),
                     trend_ok=rows[-1].err_value <= rows[0].err_value + FDD_TOL,
                     lattice_ok=dict_lattice_ok(projections))
