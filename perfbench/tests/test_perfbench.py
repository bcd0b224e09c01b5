"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import env  # noqa: E402

env.limit_blas_threads()
plapopt = env.import_plapopt()

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

NAMES = [w["name"] for w in SPEC["workloads"]]


def test_workloads_match_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def results():
    """One untraced and one traced tiny run of every workload."""
    return {(name, trace): run.run(name, seed=1, seconds=0, trace=trace, tiny=True)
            for name in NAMES for trace in (False, True)}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(results, name, trace):
    res = results[(name, trace)]
    assert res["correct"], [op for op in res["ops"] if not op[3]]
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert all(np.isfinite(m["value"]) for m in res["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_are_declared(results, name, trace):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    emitted = {k: m["unit"] for k, m in results[(name, trace)]["metrics"].items()}
    assert emitted == units


def test_traced_run_spans(results):
    res = results[("optimize", True)]
    names = {s[0] for spans in res["spans"] for s in spans}
    assert {"bench.op", "optimizer.maximize", "solver.solve", "fem.hessian",
            "solver.spsolve", "rearrangement.best_response"} <= names
    # every op's spans share its id and descend from its bench.op span
    for spans in res["spans"]:
        for name, start, end, parent, op in spans:
            if name != "bench.op":
                assert parent >= 0 and spans[parent][4] == op
                assert spans[parent][1] <= start <= end <= spans[parent][2]


def _counts(res):
    return {k: m["value"] for k, m in res["metrics"].items()
            if k.endswith(".calls") or "newton" in k or k.endswith("fallbacks")}


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_counts(results, name):
    again = run.run(name, seed=1, seconds=0, trace=True, tiny=True)
    assert _counts(again) == _counts(results[(name, True)])
    assert _counts(again)["fem.hessian.calls"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_loads(name):
    build = workloads.WORKLOADS[name]
    a, b = build(1, tiny=True), build(2, tiny=True)
    assert not all(np.array_equal(x.load, y.load) for x, y in zip(a, b))
    assert all(np.array_equal(x.load, y.load) for x, y in zip(a, build(1, tiny=True)))


def test_tracer_restores_every_binding():
    before = {mod: dict(vars(m)) for mod, m in sys.modules.items()
              if mod == "plapopt" or mod.startswith("plapopt.")}
    before_cls = dict(vars(plapopt.fem.P1Space))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert plapopt.optimizer.solve is plapopt.solver.solve
        assert plapopt.perturbation.solve is plapopt.solver.solve
        assert plapopt.optimizer.best_response is plapopt.rearrangement.best_response
        assert plapopt.solver.solve.__wrapped__ is before["plapopt.solver"]["solve"]
    for mod, attrs in before.items():
        now = vars(sys.modules[mod])
        assert all(now[k] is v for k, v in attrs.items()), mod
    assert all(vars(plapopt.fem.P1Space)[k] is v for k, v in before_cls.items())


def test_self_times_sum_to_span():
    tracer = tracing.Tracer()
    mesh = plapopt.build_disk_mesh(1.0, 16, 3)
    f = plapopt.binary_load(mesh, 4)
    with tracer.installed(), tracer.span("bench.op", 0) as root:
        plapopt.solver.solve(mesh, f, plapopt.SolveConfig(p=3.0))
    own = tracing.self_times(tracer.spans)
    assert sum(own) == pytest.approx(root.seconds, rel=1e-9, abs=1e-12)
    assert all(t >= 0.0 for t in own)


class _SlowReference:
    """Reference whose measurement takes 0.05 s and reads 2 * REF_S."""

    def measure(self):
        time.sleep(0.05)
        return 2.0 * speed.REF_S


def test_sampler_busy_and_scale():
    sampler = speed.Sampler(None)
    sampler.samples = [(0.0, 0.1, 1.0), (1.0, 1.1, 2.0), (1.5, 1.6, 4.0), (3.0, 3.1, 8.0)]
    assert sampler.busy(0.5, 2.0) == pytest.approx(0.2)
    assert sampler.busy(1.05, 1.2) == pytest.approx(0.05)
    # the samples inside [t0, t1] and the nearest one on either side
    assert sampler.scale(0.5, 2.0) == pytest.approx(speed.REF_S / 3.75)
    assert sampler.scale(1.2, 1.4) == pytest.approx(speed.REF_S / 3.0)
    assert sampler.scale(3.5, 4.0) == pytest.approx(speed.REF_S / 8.0)


def _spin(seconds):
    """Busy for ``seconds`` of this thread's CPU time; a sleeping signal
    handler lengthens the wall time but not the CPU time."""
    t0 = time.thread_time()
    while time.thread_time() - t0 < seconds:
        pass


def test_timer_samples_inside_ops():
    def spinner(i):
        return workloads.Op(f"spin{i}", 2.0, np.zeros(1), lambda: _spin(0.4),
                            lambda _: (True, "", ()))

    records, scale, samples = run._measure_scaled([spinner(i) for i in range(3)], 0,
                                                  _SlowReference())
    assert [r.op for r in records] == [0, 1, 2]
    for r in records:
        # at least one 0.05 s sample fell inside the op, and none of it
        # is counted as op time
        assert any(r.start < s < r.start + r.seconds for s, _, _ in samples)
        assert 0.39 < r.seconds < 0.445
    assert scale == [0.5] * 3


def test_reference_kernel_times():
    t = speed.Reference().measure()
    assert 0.0 < t < 100 * speed.REF_S


def test_tail_has_ten_beyond():
    value, pct, n = run.tail(list(range(100)))
    assert (value, n) == (89, 100) and pct == pytest.approx(90.0)
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_fails_without_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_predictions_cite_declared_names():
    import fnmatch

    with open(os.path.join(BENCH, "predictions.json")) as fh:
        rows = json.load(fh)["rows"]
    layer = [m["name"] for m in SPEC["per_layer"]]
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    for row in rows:
        for pattern in row["layer"]:
            assert fnmatch.filter(layer, pattern), pattern
        for pattern in row["moves"] + row.get("not_moves", []):
            assert fnmatch.filter(e2e, pattern), pattern
        assert set(row["on"] + row["not_on"]) <= set(NAMES)
