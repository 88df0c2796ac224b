"""Spans around capflow's public functions, installed from outside the package.

Each wrapper records one span per call: name, start, end, the index of the
enclosing span, the number of points in the batch argument and, for support
solves, the Newton iteration count the solver returned.  Wrappers replace a
public name everywhere a caller looks it up (for example both
``capflow.surface.geometry`` and the copy imported into ``capflow.flow``) and
methods on the classes that define them, so no file under ``src/`` changes.
Spans stay in memory; ``aggregate`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time

SUPPORT = "norms.support_many"
SUPPORT_CLOSED = "norms.support_many.closed_form"
GAUGE_KINDS = ("quadratic", "quartic", "shifted", "expression")

# fields of one span record
NAME, START, END, PARENT, POINTS, ITERS = range(6)


def _iterations(result) -> int:
    return int(result[2])


def _targets():
    """(owner, attribute, span name, index of the batch argument, result hook)."""
    from capflow import cli, condition, expr, flow, norms, surface, wulff

    functions = [
        (expr, "evaluate", "expr.evaluate", 1, None),
        (wulff, "anchor_vector", "wulff.anchor_vector", None, None),
        (condition, "slice_frame", "condition.slice_frame", None, None),
        (condition, "condition_margin", "condition.condition_margin", None, None),
        (condition, "condition_check", "condition.condition_check", None, None),
        (surface, "geometry", "surface.geometry", None, None),
        (flow, "boundary_enforce", "flow.boundary_enforce", None, None),
        (flow, "polar_filter", "flow.polar_filter", None, None),
        (flow, "run", "flow.run", None, None),
        (cli, "parse_config", "cli.parse_config", None, None),
    ]
    # the record-time integrals and residuals form one span name
    for diag in (
        "enclosed_volume", "capillary_area", "quermassintegral_interior",
        "quermassintegral_boundary", "minkowski_residual",
        "boundary_capillarity_residual",
    ):
        functions.append((surface, diag, "surface.diagnostics", None, None))
    methods = [
        (norms.Norm, "support_many", SUPPORT, 1, _iterations),
        (norms.QuadraticNorm, "support_many", SUPPORT_CLOSED, 1, _iterations),
        (norms.QuadraticNorm, "gauge_jets", "norms.gauge_jets.quadratic", 1, None),
        (norms.QuarticGaugeNorm, "gauge_jets", "norms.gauge_jets.quartic", 1, None),
        (norms.ShiftedGaugeNorm, "gauge_jets", "norms.gauge_jets.shifted", 1, None),
        (norms.ExpressionNorm, "gauge_jets", "norms.gauge_jets.expression", 1, None),
        (norms.Norm, "support_hessian_many", "norms.support_hessian_many", 1, None),
        (norms.Norm, "metric_G_many", "norms.metric_G_many", 1, None),
        (norms.Norm, "tensor_Q_many", "norms.tensor_Q_many", 1, None),
        (wulff.CapillaryWulffShape, "radial_many", "wulff.radial_many", 1, None),
        (wulff.TranslatedNorm, "slice_points", "wulff.slice_points", 1, None),
        (wulff.TranslatedNorm, "transfer_G_Q_many", "wulff.transfer_G_Q_many", 1, None),
        (surface.SliceSupportTable, "__init__", "surface.slice_table", None, None),
        (flow.FlowTrace, "to_csv", "flow.to_csv", None, None),
    ]
    return functions, methods


class Tracer:
    """Records spans while installed; restores every patched name on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, points_at, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = len(args[points_at]) if points_at is not None else 0
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, points, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                rec[ITERS] = hook(out)
            return out

        return traced

    def __enter__(self):
        functions, methods = _targets()
        modules = [m for key, m in sys.modules.items()
                   if key == "capflow" or key.startswith("capflow.")]
        for owner, attr, name, points_at, hook in functions:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, points_at, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for cls, attr, name, points_at, hook in methods:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, points_at, hook))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False


def aggregate(spans: list[list]) -> dict:
    """Per-name totals plus the solver counts derived from span nesting.

    Returns {"names": {name: [calls, points, time_s, self_s]}, "root_s",
    "newton_iters", "backtracks", "boundary_newton"}.  time_s counts only
    the outermost span of a name, so recursion through a name is not
    counted twice; self_s is the span minus its direct children.
    """
    n = len(spans)
    child_s = [0.0] * n
    gauge_children = [0] * n
    support_children = [0] * n
    for rec in spans:
        p = rec[PARENT]
        if p >= 0:
            child_s[p] += rec[END] - rec[START]
            if rec[NAME].startswith("norms.gauge_jets."):
                gauge_children[p] += 1
            elif rec[NAME] in (SUPPORT, SUPPORT_CLOSED):
                support_children[p] += 1
    names: dict[str, list] = {}
    root_s = 0.0
    newton = backtracks = boundary_newton = 0
    for i, rec in enumerate(spans):
        name, dur = rec[NAME], rec[END] - rec[START]
        st = names.setdefault(name, [0, 0, 0.0, 0.0])
        st[0] += 1
        st[1] += rec[POINTS]
        st[3] += dur - child_s[i]
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            st[2] += dur
        if rec[PARENT] < 0:
            root_s += dur
        if name == SUPPORT:
            newton += rec[ITERS]
            # one jet call at the start, one per Newton solve, one per
            # halving; the returned count includes the final convergence
            # test, which makes no solve
            backtracks += gauge_children[i] - rec[ITERS]
        elif name == "flow.boundary_enforce":
            boundary_newton += support_children[i]
    return {
        "names": names,
        "root_s": root_s,
        "newton_iters": newton,
        "backtracks": backtracks,
        "boundary_newton": boundary_newton,
    }


def write_spans(spans: list[list], path: str) -> None:
    """One CSV line per span, times in seconds from the first span."""
    t0 = spans[0][START] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,parent,start_s,end_s,points,iterations\n")
        for i, rec in enumerate(spans):
            fh.write(f"{i},{rec[NAME]},{rec[PARENT]},{rec[START] - t0:.9f},"
                     f"{rec[END] - t0:.9f},{rec[POINTS]},{rec[ITERS]}\n")
