"""Oracles for the corner deduplication and the padded sparse l1 kernel.

These are the straightforward forms that :func:`lipfree.operators.project_values`
and :func:`lipfree.geometry._sparse_l1_block` replaced, kept so the vectorised
code can be checked against them bit for bit:

* :func:`dict_project_values` finds the distinct corners with
  ``np.unique(axis=0)`` and looks each weighted corner's value up in a dict
  keyed by lattice-index tuples, built afresh on every call;
* :func:`loop_sparse_l1_block` advances the two running sums of every pair
  one occurring index at a time;
* :func:`scalar_builtins` are the builtin functions evaluated one point at a
  time, a finitely supported point through its items and a coordinate vector
  through NumPy, as :mod:`lipfree.operators` evaluated them before the
  builtins read the batch layouts.
"""

import numpy as np

from lipfree.geometry import FiniteSupportPoint, embed_finite, lattice_coords
from lipfree.operators import LipFunction, cell_weights


def dict_project_values(f, points, level):
    """Projected values of ``f``; within the call, corner values sit in a dict
    keyed by lattice-index tuples, and nothing is kept between calls."""
    if not len(points):
        return np.zeros(0)
    rows, keys, weights = cell_weights(points, level)
    corners = np.unique(keys, axis=0)
    coords = lattice_coords(corners, level.n)
    pts = [embed_finite(c) for c in coords] if level.dim is None else list(coords)
    table = dict(zip(map(tuple, corners.tolist()), map(float, f.eval_many(pts))))
    values = np.array([table[k] for k in map(tuple, keys.tolist())])
    return np.bincount(rows, weights=weights * values, minlength=len(points))


class DictProjection(LipFunction):
    """A materialized projection over :func:`dict_project_values`."""

    def __init__(self, base, level):
        super().__init__(None, declared_lip=getattr(base, "declared_lip", None))
        self.base, self.level = base, level

    def eval_many(self, points):
        return dict_project_values(self.base, points, self.level)


def loop_sparse_l1_block(ps, qs):
    """l1 distances over sparse pairs, one column (index) at a time."""
    by_index = {}
    for side, pts in ((0, ps), (2, qs)):
        for r, p in enumerate(pts):
            for idx, v in p.items:
                entry = by_index.setdefault(idx, ([], [], [], []))
                entry[side].append(r)
                entry[side + 1].append(v)
    first = np.zeros((len(ps), len(qs)))  # over the support of ps[i]
    rest = np.zeros((len(ps), len(qs)))  # over the rest of the support of qs[j]
    in_p = np.zeros(len(ps), dtype=bool)
    for idx in sorted(by_index):
        p_rows, p_vals, q_rows, q_vals = by_index[idx]
        y = np.zeros(len(qs))
        y[q_rows] = q_vals
        if p_rows:
            first[p_rows] += np.abs(np.array(p_vals)[:, None] - y[None, :])
        if q_rows:
            in_p[p_rows] = True
            rest[:, q_rows] += np.where(in_p[:, None], 0.0, np.abs(q_vals))
            in_p[p_rows] = False
    return first + rest


def norm1(x) -> float:
    """The l1 norm of a finitely supported point, its magnitudes added in index order."""
    return float(sum(abs(v) for _, v in x.items))


def _scalar_builtin(label, on_sparse, on_coords):
    def ev(x):
        return on_sparse(x) if isinstance(x, FiniteSupportPoint) else on_coords(np.asarray(x, dtype=float))

    return LipFunction(ev, declared_lip=1.0, label=label)


def scalar_builtins(index=1):
    """The scalar form of each CLI builtin, by name; ``identity-coordinate``
    reads coordinate ``index``."""
    return {
        "identity-coordinate": _scalar_builtin(f"coordinate-{index}", lambda x: x.coord(index),
                                               lambda u: float(u[index - 1])),
        "l1-norm": _scalar_builtin("l1-norm", norm1, lambda u: float(np.sum(np.abs(u)))),
        "max-coordinate": _scalar_builtin("max-coordinate",
                                          lambda x: max(0.0, max((v for _, v in x.items), default=0.0)),
                                          lambda u: max(0.0, float(np.max(u)))),
    }
