"""One fresh interpreter of the benchmark: a set-up probe or the op loop.

    python3 perfbench/worker.py setup --workload W --seed N --out FILE
    python3 perfbench/worker.py ops --workload W --seed N --seconds S \
        --trace 0|1 --workdir DIR --out FILE

``run.py`` starts it with BLAS/OpenMP threads pinned to 1 and ``src`` on the
path, and reads the JSON it writes to FILE.  The op loop is closed: one
``capflow.cli.main`` call at a time, in rounds, while the next round would
end less than half a round after ``--seconds``.  With ``--trace 1``
untraced and traced rounds alternate on the same inputs, so the traced
outputs can be compared byte for byte and the tracing overhead measured.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up probes time the imports from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer as tr  # noqa: E402
from workloads import (  # noqa: E402
    OUTPUT_FILES,
    WORKLOADS,
    FlowWorkload,
    radial_dev,
    read_summary,
    read_trace,
    write_config,
)


def start_geometry(config: dict, mark=lambda stage: None):
    """Norm, anchor and first geometry of the perturbed cap a flow starts from."""
    from capflow.flow import FlowConfig, initial_surface
    from capflow.norms import make_norm
    from capflow.surface import geometry
    from capflow.wulff import anchor_vector

    norm = make_norm(config["norm.kind"])
    mark("make_norm_s")
    omega0 = float(config["flow.omega0"])
    anchor = anchor_vector(norm, omega0)
    mark("anchor_vector_s")
    cfg = FlowConfig(norm=norm, omega0=omega0, n_beta=int(config["grid.n_beta"]),
                     n_lambda=int(config["grid.n_lambda"]),
                     epsilon=float(config["flow.epsilon"]),
                     seed=int(config["flow.seed"]))
    surface = initial_surface(cfg, anchor)
    mark("initial_surface_s")
    bundle = geometry(surface, norm, omega0, anchor)
    mark("geometry_s")
    return norm, anchor, bundle


def convex_start(config: dict) -> bool:
    """Whether the perturbed cap a flow config starts from has min kappa_F > 0."""
    return float(start_geometry(config)[2].kappaF.min()) > 0.0


def setup_probe(w, seed: int) -> dict:
    """Time the program's set-up in this fresh interpreter, stage by stage."""
    stages = {}
    last = T0

    def mark(stage):
        nonlocal last
        now = time.perf_counter()
        stages[stage] = now - last
        last = now

    import capflow.cli  # noqa: F401  (imports every module)
    from capflow.norms import make_norm
    from capflow.surface import SliceSupportTable
    from capflow.wulff import TranslatedNorm

    mark("import_s")
    if isinstance(w, FlowWorkload):
        norm, anchor, _ = start_geometry(w.config(next(w.candidates(seed, 0))), mark)
        SliceSupportTable(TranslatedNorm(norm, w.omega0, anchor))
        mark("slice_table_s")
    else:
        cases = [(make_norm(c["norm.kind"], json.loads(c.get("norm.params", "[]")),
                            c.get("norm.f0_expr")), float(c["condition.omega0"]))
                 for _, c, _, _ in w.CASES]
        mark("make_norm_s")
        for norm, omega0 in cases:
            TranslatedNorm(norm, omega0)
        mark("translated_norm_s")
    return {"setup_s": time.perf_counter() - T0, "stages": stages}


def _run_op(main, op, path) -> tuple[float, object]:
    sink = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main([op.command, path])
        except Exception:  # an op that raises is a failed op, not a crash
            code = "exception: " + traceback.format_exc(limit=3)
    return time.perf_counter() - t, code


def _read_outputs(op, out_dir) -> dict:
    out = {}
    for name in OUTPUT_FILES[op.command]:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
        else:
            out[name] = None
    return out


def op_loop(w, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    from capflow.cli import main

    rounds, problems = [], []
    first_outputs = {}      # op label -> output bytes of round 0
    traced_aggs = []
    layers = None
    start = time.perf_counter()
    r = 0
    ops = None
    while True:
        traced = trace and r % 2 == 1
        if ops is None or not trace:
            ops = w.ops(seed, r, convex_start)
        dirs = [os.path.join(workdir, f"round{r}", op.label) for op in ops]
        paths = [write_config(op, d) for op, d in zip(ops, dirs)]
        tracer = tr.Tracer() if traced else contextlib.nullcontext()
        op_rows = []
        with tracer:
            c0, t0 = time.process_time(), time.perf_counter()
            for op, path in zip(ops, paths):
                wall, code = _run_op(main, op, path)
                op_rows.append({"label": op.label, "wall_s": wall, "exit": code})
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        for op, d, row in zip(ops, dirs, op_rows):
            code = row["exit"]
            row["failures"] = (w.check(op, d, code) if isinstance(code, int)
                               else [code])
            if op.command == "simulate" and isinstance(code, int):
                summary = read_summary(os.path.join(d, "summary.txt"))
                row["steps"] = int(summary["steps"])
                row["radial_dev"] = radial_dev(summary)
                row["dts"] = [float(x["dt"]) for x in read_trace(d)]
            if trace:
                got = _read_outputs(op, d)
                if r == 0:
                    first_outputs[op.label] = got
                elif got != first_outputs[op.label]:
                    problems.append(f"round {r} ({'traced' if traced else 'untraced'}) "
                                    f"{op.label}: outputs differ from round 0")
        rounds.append({"traced": traced, "wall_s": wall, "cpu_s": cpu, "ops": op_rows})
        if traced:
            agg = tr.aggregate(tracer.spans)
            counts = {k: v[:2] for k, v in agg["names"].items()}
            counts.update({k: agg[k] for k in ("newton_iters", "backtracks",
                                               "boundary_newton")})
            if traced_aggs and counts != traced_aggs[0]:
                problems.append(f"round {r}: span counts differ from the first "
                                "traced round")
            traced_aggs.append(counts)
            if layers is None:
                tr.write_spans(tracer.spans, os.path.join(workdir, "spans.csv"))
                layers = (agg, rounds[-1])
        r += 1
        elapsed = time.perf_counter() - start
        if trace and r < 2:
            continue
        # start another round only if, taken as long as the last one, it
        # would end less than half a round after the window
        if elapsed + 0.5 * rounds[-1]["wall_s"] > seconds:
            break
    result = {
        "rounds": rounds,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(),
    }
    if trace:
        result["layers"] = layer_metrics(*layers, rounds)
    return result


def layer_metrics(agg: dict, traced_round: dict, rounds: list) -> dict:
    """Per-layer metrics of the first traced round, named as in BENCHMARK.json."""
    names = agg["names"]

    def stat(name, field):
        return names.get(name, [0, 0, 0.0, 0.0])[("calls", "points", "time_s",
                                                    "self_s").index(field)]

    m = {}
    support = (tr.SUPPORT, tr.SUPPORT_CLOSED)
    m["norms.support_many.calls"] = sum(stat(n, "calls") for n in support)
    m["norms.support_many.points"] = sum(stat(n, "points") for n in support)
    m["norms.support_many.newton_iters"] = agg["newton_iters"]
    m["norms.support_many.backtracks"] = agg["backtracks"]
    m["norms.support_many.self_s"] = sum(stat(n, "self_s") for n in support)
    for kind in tr.GAUGE_KINDS:
        for field in ("calls", "points", "time_s"):
            m[f"norms.gauge_jets.{kind}.{field}"] = stat(f"norms.gauge_jets.{kind}", field)
    for name in ("support_hessian_many", "metric_G_many", "tensor_Q_many"):
        m[f"norms.{name}.time_s"] = stat(f"norms.{name}", "time_s")
    for field in ("calls", "points", "time_s"):
        m[f"expr.evaluate.{field}"] = stat("expr.evaluate", field)
    m["surface.geometry.calls"] = stat("surface.geometry", "calls")
    m["surface.geometry.self_s"] = stat("surface.geometry", "self_s")
    m["surface.diagnostics.calls"] = stat("surface.diagnostics", "calls")
    m["surface.diagnostics.time_s"] = stat("surface.diagnostics", "time_s")
    m["surface.slice_table.time_s"] = stat("surface.slice_table", "time_s")

    flows = [op for op in traced_round["ops"] if "steps" in op]
    untraced = [rd for rd in rounds if not rd["traced"]]
    steps = sum(op["steps"] for op in flows)
    untraced_steps = sum(op.get("steps", 0) for rd in untraced for op in rd["ops"])
    m["flow.steps"] = steps
    m["flow.ms_per_step"] = (1000.0 * sum(rd["wall_s"] for rd in untraced)
                             / untraced_steps) if untraced_steps else 0.0
    dts = [dt for op in flows for dt in op["dts"]]
    m["flow.dt_median"] = statistics.median(dts) if dts else 0.0
    m["flow.radial_dev"] = max((op["radial_dev"] for op in flows), default=0.0)
    m["flow.boundary_enforce.calls"] = stat("flow.boundary_enforce", "calls")
    m["flow.boundary_enforce.newton_iters"] = agg["boundary_newton"]
    m["flow.boundary_enforce.self_s"] = stat("flow.boundary_enforce", "self_s")
    m["flow.polar_filter.time_s"] = stat("flow.polar_filter", "time_s")
    m["flow.run.self_s"] = stat("flow.run", "self_s")
    m["flow.to_csv.time_s"] = stat("flow.to_csv", "time_s")
    m["wulff.anchor_vector.time_s"] = stat("wulff.anchor_vector", "time_s")
    m["wulff.radial_many.time_s"] = stat("wulff.radial_many", "time_s")
    for name in ("slice_points", "transfer_G_Q_many"):
        m[f"wulff.{name}.calls"] = stat(f"wulff.{name}", "calls")
        m[f"wulff.{name}.time_s"] = stat(f"wulff.{name}", "time_s")
    for name in ("slice_frame", "condition_margin", "condition_check"):
        m[f"condition.{name}.calls"] = stat(f"condition.{name}", "calls")
        m[f"condition.{name}.time_s"] = stat(f"condition.{name}", "time_s")
    m["cli.parse_config.time_s"] = stat("cli.parse_config", "time_s")
    m["proc.cpu_s"] = statistics.fmean(rd["cpu_s"] for rd in untraced)
    m["trace.overhead_s"] = (
        statistics.fmean(rd["wall_s"] for rd in rounds if rd["traced"])
        - statistics.fmean(rd["wall_s"] for rd in untraced)
    )
    m["unattributed_s"] = traced_round["wall_s"] - agg["root_s"]
    return m


def versions() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name', '?')} {dep.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        pass
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "ops"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    w = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup_probe(w, args.seed)
    else:
        result = op_loop(w, args.seed, args.seconds, bool(args.trace), args.workdir)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
