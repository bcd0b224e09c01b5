"""plapopt benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; plapopt is imported from its ``src``
tree. The ops of the workload's task list (see ``workloads.py``) run one
after another in this single process, each starting when the previous
one returns, and every op's output is checked.

``--trace 0`` cycles over the task list, untraced, until S seconds have
passed and every op has run at least once. A fixed reference kernel
(``speed.py``) is timed every few tenths of a second, also inside ops,
and each op's time is scaled to the kernel's nominal speed by the kernel
times around it: the host's speed drifts by up to 1.6x over tens of
seconds, and the scaled times stay put where the raw ones do not. An
op's time is the median over its runs; the raw (unscaled) figures are
printed beside the metrics and kept in the record. Set-up time is that
of a fresh process importing what a run imports, plus the build of the
task list, timed SETUP_REPEATS times and scaled the same way.

``--trace 1`` alternates untraced and traced passes, as many as fit in S
seconds at the workload's nominal pass time, checks that both give
bitwise-equal results, and reports the per-layer metrics of the traced
passes (raw seconds) plus the tracing overhead.

One ``metric value unit`` line is printed per metric, then ``#`` lines
with the raw figures and the environment, and last a JSON object with
the keys correct, attempted, failed and metrics. The full record (every
op, and the spans of a traced run) is written under ``perfbench/results/``.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import env
from tracing import Tracer, self_times, span_totals

SETUP_REPEATS = 5
QUICK_S, QUICK_REPEATS = 0.2, 3
# what a run imports before its first op, timed in a fresh process
IMPORTS = ("import time; t0 = time.perf_counter(); import env; env.limit_blas_threads(); "
           "env.import_plapopt(); import workloads; print(time.perf_counter() - t0)")
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile

# per-layer metric families: span name -> which of calls, s, self_s
LAYER_FIELDS = {
    "fem.space": ("calls", "s"),
    "fem.energy": ("calls", "s"),
    "fem.residual": ("calls", "s"),
    "fem.hessian": ("calls", "s"),
    "fem.load_vector_from_function": ("calls", "s"),
    "solver.solve": ("calls", "s", "self_s"),
    "solver.spsolve": ("calls", "s"),
    "rearrangement.best_response": ("calls", "s"),
    "rearrangement.comonotonicity_defect": ("calls", "s"),
    "optimizer.maximize": ("calls", "s", "self_s"),
    "perturbation.transport_load": ("s", "self_s"),
    "perturbation.deriv_volume_formula": ("s", "self_s"),
    "perturbation.deriv_surfdiv_formula": ("s", "self_s"),
    "perturbation.deriv_bvjump_formula": ("s", "self_s"),
    "perturbation.deriv_finite_difference": ("s", "self_s"),
    "perturbation.derivative_report": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
DERIVED_UNITS = {
    "solver.newton_per_solve": "steps",
    "solver.first_stage_newton_per_solve": "steps",
    "solver.gradient_fallbacks": "count",
    "solver.energy_evals_per_newton": "ratio",
    "optimizer.solves_per_maximize": "count",
    "optimizer.fixed_point_frac": "ratio",
    "geometry.build_mesh.s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Record:
    op: int
    p: float
    seconds: float
    ok: bool
    detail: str
    values: tuple
    start: float = 0.0


@dataclass
class Pass:
    records: list
    tracer: Tracer = None

    @property
    def seconds(self):
        return sum(r.seconds for r in self.records)


def _import_seconds():
    """Seconds a fresh Python process takes to make the imports a run
    makes (numpy, scipy, plapopt, the workloads), as timed in it."""
    out = subprocess.run([sys.executable, "-c", IMPORTS], check=True, timeout=120,
                         cwd=os.path.dirname(os.path.abspath(__file__)),
                         capture_output=True, text=True)
    return float(out.stdout)


def _run_op(i, op):
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception:  # a failed op is counted, not fatal
        return Record(i, op.p, time.perf_counter() - t0, False, traceback.format_exc(), None, t0)
    dt = time.perf_counter() - t0
    ok, detail, values = op.check(result)
    return Record(i, op.p, dt, ok, detail, values, t0)


def _run_pass(ops, tracer=None):
    """Run the whole task list once."""
    records = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for i, op in enumerate(ops):
            if tracer:
                with tracer.span("bench.op", i):
                    records.append(_run_op(i, op))
            else:
                records.append(_run_op(i, op))
    return Pass(records, tracer)


def _measure(ops, passes):
    """``passes`` pairs of an untraced and a traced pass."""
    out = []
    for _ in range(passes):
        out.append(_run_pass(ops))
        out.append(_run_pass(ops, Tracer()))
    return out


def _measure_scaled(ops, seconds, ref):
    """Untraced ops, cycling over the task list until ``seconds`` have
    passed and every op has run once, while a ``speed.Sampler`` times the
    reference kernel. An op quicker than QUICK_S runs up to QUICK_REPEATS
    times in a row, so that a run holds more than a sample or two of the
    quick ops of a workload whose pass is long. Returns the records, with
    the sampling taken out of their times, the factor that scales each to
    reference speed, and the samples."""
    import speed

    sampler = speed.Sampler(ref)
    records = []
    with sampler.running():
        t_end = time.perf_counter() + seconds
        n = 0
        while n < len(ops) or time.perf_counter() < t_end:
            i = n % len(ops)
            for _ in range(QUICK_REPEATS):
                records.append(_run_op(i, ops[i]))
                if records[-1].seconds >= QUICK_S:
                    break
            n += 1
    scale = []
    for r in records:
        end = r.start + r.seconds
        r.seconds -= sampler.busy(r.start, end)
        scale.append(sampler.scale(r.start, end))
    return records, scale, sampler.samples


def tail(times):
    """(value, percentile, n): the highest percentile of ``times`` with at
    least TAIL_BEYOND samples beyond it; the maximum if there are fewer
    than TAIL_BEYOND + 1 samples."""
    ts = sorted(times)
    n = len(ts)
    k = max(n - TAIL_BEYOND - 1, 0) if n > TAIL_BEYOND else n - 1
    return ts[k], 100.0 * (k + 1) / n, n


def _ancestor(spans, s, name):
    while s.parent >= 0:
        s = spans[s.parent]
        if s.name == name:
            return True
    return False


def layer_metrics(spans):
    """Per-layer metrics of one traced pass; see BENCHMARK.json."""
    totals = span_totals(spans)
    out = {}
    for name, fields in LAYER_FIELDS.items():
        calls, secs, own = totals.get(name, (0, 0.0, 0.0))
        vals = {"calls": calls, "s": secs, "self_s": own}
        for f in fields:
            out[f"{name}.{f}"] = vals[f]

    def ratio(a, b):
        return a / b if b else 0.0

    solves = [s for s in spans if s.name == "solver.solve"]
    fd = "perturbation.deriv_finite_difference"
    # each finite-difference estimate runs two transported solves
    n_solves = (sum(not _ancestor(spans, s, fd) for s in solves)
                + 2 * totals.get(fd, (0,))[0])
    steps = out["fem.hessian.calls"]  # one assembly per Newton step
    maxes = [s for s in spans if s.name == "optimizer.maximize"]
    out.update({
        "solver.newton_per_solve": ratio(steps, n_solves),
        "solver.first_stage_newton_per_solve": ratio(sum(s.info[1] for s in solves), len(solves)),
        "solver.gradient_fallbacks": sum(s.info[2] for s in solves),
        "solver.energy_evals_per_newton": ratio(out["fem.energy.calls"], steps),
        "optimizer.solves_per_maximize": ratio(
            sum(_ancestor(spans, s, "optimizer.maximize") for s in solves), len(maxes)),
        "optimizer.fixed_point_frac": ratio(sum(s.info[1] for s in maxes),
                                            sum(s.info[0] for s in maxes)),
    })
    return out


def metric_units(trace):
    """{metric name: unit} of the metrics a run reports."""
    import workloads

    if not trace:
        units = {"setup_s": "s", "wall_s": "s"}
        units.update({f"op_s.{workloads.p_name(p)}": "s" for p in workloads.PS})
        units.update({"op_s.tail": "s", "peak_rss_mb": "MiB"})
        return units
    units = {f"{name}.{f}": FIELD_UNITS[f]
             for name, fields in LAYER_FIELDS.items() for f in fields}
    units.update(DERIVED_UNITS)
    return units


def _check_traced(passes):
    """Compare traced with untraced passes. An op whose results differ
    between passes, or whose spans' self times do not add up to its wall
    time, is marked failed; run-level problems are returned."""

    def fail(rec, why):
        rec.ok = False
        rec.detail = f"{why}; {rec.detail}"

    base = passes[0].records
    for ps in passes[1:]:
        for a, b in zip(base, ps.records):
            if a.values != b.values:
                fail(b, "results differ from the first pass")
    traced = [ps for ps in passes if ps.tracer]
    for ps in traced:
        spans = ps.tracer.spans
        own = {}
        for s, t in zip(spans, self_times(spans)):
            own[s.op] = own.get(s.op, 0.0) + t
        for s in spans:
            if s.name == "bench.op" and abs(own[s.op] - s.seconds) > 1e-9 * (1.0 + s.seconds):
                fail(ps.records[s.op], f"self times sum to {own[s.op]!r}, op span is {s.seconds!r}")
    counts = [{k: v[0] for k, v in span_totals(ps.tracer.spans).items()} for ps in traced]
    if any(c != counts[0] for c in counts[1:]):
        return ["span counts differ between traced passes"]
    return []


def run(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns the full record (see ``main``)."""
    import speed
    import workloads

    build = workloads.WORKLOADS[name]
    ref = None if trace else speed.Reference()
    # set-up, repeated: untraced, the imports of a fresh process plus the
    # build of the task list, each scaled by the reference measurements
    # taken right before and after it
    setup_s, setup_scaled, setup_tracers = [], [], []
    for _ in range(SETUP_REPEATS):
        tracer = Tracer() if trace else None
        before = ref.measure() if ref else 0.0
        imports = 0.0 if trace else _import_seconds()
        t0 = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            ops = build(seed, tiny)
        setup_s.append(imports + time.perf_counter() - t0)
        if ref:
            setup_scaled.append(setup_s[-1] * 2.0 * speed.REF_S / (before + ref.measure()))
        setup_tracers.append(tracer)

    info = {"setup_repeats_s": setup_s}
    if trace:
        # fixed work per run: as many untraced and traced pairs as fit in
        # ``seconds`` at the nominal pass time
        n_pass = max(1, int(seconds // (2 * workloads.PASS_S[name])))
        passes = _measure(ops, n_pass)
        problems = _check_traced(passes)
        records = [r for ps in passes for r in ps.records]
        info["pass_s"] = [ps.seconds for ps in passes]
        traced = [ps for ps in passes if ps.tracer]
        per_pass = [layer_metrics(ps.tracer.spans) for ps in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["geometry.build_mesh.s"] = statistics.median(
            span_totals(t.spans).get("geometry.build_mesh", (0, 0.0))[1] for t in setup_tracers)
        metrics["trace.overhead_s"] = (
            statistics.median(ps.seconds for ps in traced)
            - statistics.median(ps.seconds for ps in passes if not ps.tracer))
    else:
        # warm-up, not recorded, on the first p = 2 op: the cheapest, with
        # one Newton step per continuation stage
        warm = next(i for i, op in enumerate(ops) if op.p == 2.0)
        _run_op(warm, ops[warm])
        records, scale, samples = _measure_scaled(ops, seconds, ref)
        passes, problems = [], []

        def per_op(k):
            return [statistics.median(r.seconds * f for r, f in zip(records, k) if r.op == i)
                    for i in range(len(ops))]

        def summary(times, setup):
            return {
                "setup_s": setup,
                "wall_s": sum(times),
                **{f"op_s.{workloads.p_name(p)}": statistics.median(
                    t for t, op in zip(times, ops) if op.p == p) for p in workloads.PS},
                "op_s.tail": tail(times)[0],
            }

        info["raw"] = summary(per_op([1.0] * len(records)), statistics.median(setup_s))
        scaled = per_op(scale)
        metrics = summary(scaled, statistics.median(setup_scaled))
        _, t_pct, t_n = tail(scaled)
        info["tail"] = {"percentile": t_pct, "ops": t_n}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        info["reference"] = samples
        refs = [x for _, _, x in samples]
        info["speed"] = speed.REF_S / statistics.median(refs)
        info["scale"] = scale
    failed = sum(not r.ok for r in records)
    info["fail_frac"] = failed / len(records)
    info["problems"] = problems
    units = metric_units(trace)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "info": info,
        "ops": [[r.op, r.p, r.seconds, r.ok, r.detail, r.start] for r in records],
        "labels": [op.label for op in ops],
        "spans": [[[s.name, s.start, s.end, s.parent, s.op] for s in ps.tracer.spans]
                  for ps in passes if ps.tracer],
    }


def _write(result, environment):
    os.makedirs(env.RESULTS, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    with open(os.path.join(env.RESULTS, stem + ".json"), "w") as fh:
        json.dump({"env": environment, **result}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    env.limit_blas_threads()
    try:
        env.import_plapopt()
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    environment = env.environment()
    _write(result, environment)

    info = result["info"]
    for k, m in result["metrics"].items():
        note = ""
        if k == "op_s.tail":
            note = f"  (p{info['tail']['percentile']:.1f} of {info['tail']['ops']} ops)"
        print(f"{k} {m['value']:.6g} {m['unit']}{note}")
    print(f"fail_frac {info['fail_frac']:.6g} ({result['failed']}/{result['attempted']} ops)")
    if "raw" in info:
        print(f"# machine speed {info['speed']:.4g} x reference; raw (unscaled) seconds: "
              + " ".join(f"{k} {v:.6g}" for k, v in info["raw"].items()))
    for problem in info["problems"]:
        print(f"# problem: {problem}")
    for op, p, secs, ok, detail, _ in result["ops"]:
        if not ok:
            print(f"# failed op {op} ({result['labels'][op]}): {detail}")
    print("# env " + json.dumps(environment, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
