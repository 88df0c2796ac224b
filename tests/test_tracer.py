"""The benchmark's tracer still finds every name it patches.

perfbench/tracer.py wraps capflow functions and methods by name from
outside the package; a refactor that moves or renames one of them breaks
every traced benchmark run.  This test loads the tracer from its file
(read-only) and runs a short quartic flow under it.
"""

import importlib.util
from pathlib import Path

from capflow import condition, norms
from capflow.flow import FlowConfig, run
from capflow.norms import QUARTIC_A2_TEXT, make_norm

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_support_spans_are_recorded():
    tracer = load_tracer()
    functions, methods = tracer._targets()
    for owner, attr, *_ in functions:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    for cls, attr, *_ in methods:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"
    original = norms.Norm.__dict__["support_many"]
    # the quartic_a2 gauge as an expression: the builtin quartic's closed-form
    # dual makes no Newton iterations to count
    cfg = FlowConfig(norm=make_norm("custom", f0_expr=QUARTIC_A2_TEXT), omega0=-0.3,
                     n_beta=16, n_lambda=32, t_end=0.01)
    with tracer.Tracer() as t:
        trace, _ = run(cfg)
    assert trace.steps > 0
    names = {rec[tracer.NAME] for rec in t.spans}
    for name in (tracer.SUPPORT, "surface.geometry", "flow.boundary_enforce"):
        assert name in names, name
    agg = tracer.aggregate(t.spans)
    # boundary_newton counts support_many spans directly under boundary_enforce;
    # the rim closure checks its own residual and makes no dual solve
    assert agg["newton_iters"] > 0 and agg["boundary_newton"] == 0
    # leaving the tracer restores every patched name
    assert norms.Norm.__dict__["support_many"] is original


def test_admissibility_check_spans_are_recorded():
    tracer = load_tracer()
    check, hessian = condition.condition_check, norms.Norm.__dict__["support_hessian_many"]
    with tracer.Tracer() as t:
        # through the module attribute, which the tracer patches
        report = condition.condition_check(make_norm("quartic_a3", [0.3]), 0.3,
                                           slice_samples=16)
    assert report.both_forms_agree
    names = {rec[tracer.NAME] for rec in t.spans}
    for name in ("condition.condition_check", "norms.support_hessian_many",
                 "norms.tensor_Q_many", "wulff.transfer_G_Q_many"):
        assert name in names, name
    # leaving the tracer restores every patched name
    assert condition.condition_check is check
    assert norms.Norm.__dict__["support_hessian_many"] is hessian


def ancestors(tracer, spans, rec):
    names = []
    while rec[tracer.PARENT] >= 0:
        rec = spans[rec[tracer.PARENT]]
        names.append(rec[tracer.NAME])
    return names


def test_builtin_jet_spans_nest_in_the_rim_closure_not_the_geometry():
    # the closed-form rim closure of the builtin quartic reads its jets
    # through gauge_jets, so each call is a span under boundary_enforce; the
    # geometry takes the metric in closed form and evaluates no jets
    tracer = load_tracer()
    cfg = FlowConfig(norm=make_norm("quartic_a2"), omega0=-0.3, n_beta=16, n_lambda=32,
                     t_end=0.01)
    with tracer.Tracer() as t:
        trace, _ = run(cfg)
    assert trace.steps > 0
    outer = {name for rec in t.spans if rec[tracer.NAME] == "norms.gauge_jets.quartic"
             for name in ancestors(tracer, t.spans, rec)}
    assert "flow.boundary_enforce" in outer
    assert "surface.geometry" not in outer
