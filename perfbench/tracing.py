"""Outside-in tracing: spans around the calls into each lipfree module.

Every traced name is replaced where it is looked up (a module global or a
class attribute) by a wrapper that records a span, so the program runs
unchanged.  A span is ``[name, start, end, parent, op, counts]``; spans stay
in memory and are written out when the run ends.  Counts are read from the
call's arguments and return value only.

A span's self time is its duration minus the time its child spans cover.  A
layer is the module that defines the function; work the program does in
functions that are not wrapped lands in the self time of the nearest
wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

_NAME, _START, _END, _PARENT, _OP, _COUNTS = range(6)


def _points(args, kwargs, out):
    return {"corner_evals": len(args[1])}


def _norm_support(args, kwargs, out):
    return {"norm_support": len(args[0].terms)}


def _terms_out(args, kwargs, out):
    return {"terms_out": len(out.terms)}


def _lp_counts(args, kwargs, out):
    a = args[1] if len(args) > 1 else kwargs.get("A")
    return {"pivots": out.iterations, "rows": 0 if a is None else len(a)}


def _space_points(args, kwargs, out):
    return {"space_points": args[0].size}


# (module[:class], attribute, span name, counts from (args, kwargs, result)).
# The attribute is replaced where the program looks it up; the span is named
# after the module that defines the function.  Every library entry point the
# CLI calls is wrapped too, so that cli.main's self time is the CLI's own
# parsing, rendering and writing.
TARGETS = [
    ("lipfree.operators", "convergence_check", "operators.convergence_check", None),
    ("lipfree.operators", "random_lattice_function", "operators.random_lattice_function", None),
    ("lipfree.operators", "project_values", "operators.project_values", None),
    ("lipfree.operators", "cell_weights", "operators.cell_weights", None),
    ("lipfree.operators", "cell_low_corners", "geometry.cell_low_corners", None),
    ("lipfree.operators", "weights_from_offsets", "interpolation.weights_from_offsets", None),
    ("lipfree.operators", "lip_constant", "interpolation.lip_constant", None),
    ("lipfree.operators:LipFunction", "eval_many", "operators.eval_many", _points),
    ("lipfree.freespace:Molecule", "from_json", "freespace.Molecule.from_json", None),
    ("lipfree.freespace", "free_norm", "freespace.free_norm", _norm_support),
    ("lipfree.freespace", "decomposition_report", "freespace.decomposition_report", None),
    ("lipfree.freespace", "molecule_projection", "freespace.molecule_projection", _terms_out),
    ("lipfree.freespace", "molecules_close", "freespace.molecules_close", None),
    ("lipfree.freespace", "cell_weights", "operators.cell_weights", None),
    ("lipfree.freespace", "solve_box_lp", "lp.solve_box_lp", _lp_counts),
    ("lipfree.extension:FinitePointedMetricSpace", "from_json",
     "extension.FinitePointedMetricSpace.from_json", None),
    ("lipfree.extension", "space_function", "extension.space_function", None),
    ("lipfree.extension", "chain_table", "extension.chain_table", None),
    ("lipfree.extension", "doubling_estimate", "extension.doubling_estimate", _space_points),
    ("lipfree.extension", "farthest_point_chain", "extension.farthest_point_chain", None),
    ("lipfree.extension", "approximation_operator", "extension.approximation_operator", None),
    ("lipfree.extension", "build_partition", "extension.build_partition", None),
    ("lipfree.extension", "gentleness", "extension.gentleness", None),
    ("lipfree.extension", "covering_radius", "extension.covering_radius", None),
    ("lipfree.extension", "lip_constant", "interpolation.lip_constant", None),
]

ROOT = "cli.main"


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores the program."""

    def __init__(self):
        self.spans: list[list] = []
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = None

    def _wrap(self, name, fn, counts):
        spans, stack, errors = self.spans, self._stack, self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                rec[_END] = perf_counter()
                stack.pop()
            if counts is not None:
                rec[_COUNTS] = counts(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for where, attr, name, counts in TARGETS:
            mod_name, _, cls_name = where.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, counts))
            else:
                wrapped = self._wrap(name, original, counts)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_op(self, op_id, call):
        """Run ``call()`` as one op under a root span; returns its result."""
        self.op = op_id
        return self._wrap(ROOT, call, None)()

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans: list[list]) -> dict:
    """Per-name totals: calls, inclusive seconds, self seconds, summed counts."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[_PARENT] is not None:
            child_time[rec[_PARENT]] += rec[_END] - rec[_START]
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": defaultdict(int)})
    for rec, covered in zip(spans, child_time):
        dur = rec[_END] - rec[_START]
        entry = out[rec[_NAME]]
        entry["calls"] += 1
        entry["s"] += dur
        entry["self_s"] += dur - covered
        for key, value in (rec[_COUNTS] or {}).items():
            entry["counts"][key] += value
    return out


def layer_shares(summary: dict) -> dict[str, float]:
    """Each layer's self time as a share of the total op time."""
    total = summary[ROOT]["s"] if ROOT in summary else 0.0
    by_layer: dict[str, float] = defaultdict(float)
    for name, entry in summary.items():
        by_layer[layer_of(name)] += entry["self_s"]
    return {layer: (t / total if total else 0.0) for layer, t in sorted(by_layer.items())}
