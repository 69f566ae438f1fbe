"""Tests of the benchmark's own helpers: input generation, statistics, spans.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import textwrap

import numpy as np
import pytest

import spans
import stats
import workloads


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = workloads.build(workload, 7)
    again = workloads.build(workload, 7)
    assert first == again
    assert (workloads.inputs_hash(first[0] + first[1])
            == workloads.inputs_hash(again[0] + again[1]))


@pytest.mark.parametrize("workload", ("dykstra", "small-batch"))
def test_seed_changes_values_but_not_shapes(workload):
    warm_a, calls_a = workloads.build(workload, 1)
    warm_b, calls_b = workloads.build(workload, 2)
    assert workloads.inputs_hash(calls_a) != workloads.inputs_hash(calls_b)
    assert [c.label for c in calls_a] == [c.label for c in calls_b]
    assert [c.expect for c in calls_a] == [c.expect for c in calls_b]
    for a, b in zip(calls_a, calls_b):
        assert json.dumps(a.doc, sort_keys=True) != json.dumps(b.doc, sort_keys=True)
        assert _shape(a.doc) == _shape(b.doc)


def _shape(doc):
    if isinstance(doc, dict):
        if "entries" in doc:
            return ("op", doc["dim_row"], doc["dim_col"])
        return {k: _shape(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_shape(v) for v in doc]
    return type(doc).__name__


def test_small_batch_is_many_small_calls():
    _, calls = workloads.build("small-batch", 0)
    assert len(calls) >= 100
    assert {c.subcommand for c in calls} == {"fixpoints", "check-states", "pvm-embed",
                                              "approx-check", "check-meas"}


def test_dykstra_fast_pairs_hold_the_median_and_sit_between_long_searches():
    _, calls = workloads.build("dykstra", 0)
    fast = [i for i, c in enumerate(calls) if "-fast-" in c.label]
    assert len(fast) == workloads.FAST_PAIRS > len(calls) / 2
    long_ = [i for i in range(len(calls)) if i not in fast]
    assert all(b - a > 1 for a, b in zip(long_, long_[1:]))


def test_generated_operators_are_valid():
    rng = np.random.default_rng(3)
    for d in (2, 5):
        effects, states = workloads.norm_one(d, min(2, d - 1), rng)
        np.testing.assert_allclose(sum(effects), np.eye(d), atol=1e-12)
        for s in states:
            assert abs(np.trace(s) - 1) < 1e-12
            assert np.linalg.eigvalsh(s).min() > -1e-12
        u = workloads.haar_unitary(d, rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


def test_check_flags_a_wrong_verdict():
    call = workloads.Call("x", ("check-states",), None, {"verdict": "confirming"})
    report = {"config": {"tol": 1e-9}, "result": {"verdict": "non_confirming"}}
    assert "expected 'confirming'" in workloads.check_report(call, report)
    report["result"]["verdict"] = "confirming"
    assert workloads.check_report(call, report) is None
    assert "malformed" in workloads.check_report(call, {"config": {}})


# ---------------------------------------------------------------------------
# statistics


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))          # 100 samples: p90 is 90, with 10 beyond
    assert stats.percentile(values, 90) == 90.0
    assert stats.percentile(values[:99], 90) is None  # 9 beyond
    assert stats.percentile(list(range(20)), 50) == 9.0
    assert stats.percentile([1.0] * 10, 50) is None
    assert stats.percentile([], 50) is None


def test_hd_median():
    assert stats.hd_median([3.0] * 7) == pytest.approx(3.0)
    assert stats.hd_median([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)
    assert stats.hd_median([5.0, 1.0, 4.0, 2.0, 3.0]) == pytest.approx(3.0)
    # two clusters with a gap at the middle: the sample median jumps with one
    # rank swap, the estimate moves by a fraction of the gap
    low, high = [1.0] * 50, [2.0] * 50
    swapped = stats.hd_median(low[:-1] + [2.0] + high)
    assert abs(swapped - stats.hd_median(low + high)) < 0.2
    assert stats.median(low + high) == 1.5 and stats.median(low[:-1] + [2.0] + high) == 2.0


# ---------------------------------------------------------------------------
# spans


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)

    def inner():
        clock.now += 5

    inner_w = rec.wrap("toy.inner", inner)

    def outer():
        clock.now += 1
        inner_w()
        clock.now += 2
        inner_w()
        clock.now += 3

    rec.wrap("toy.outer", outer)()
    trace = rec.take()
    assert trace.calls("toy.inner") == 2
    assert trace.inclusive_s("toy.outer") == pytest.approx(16e-9)
    assert trace.self_s("toy.outer") == pytest.approx(6e-9)
    assert trace.self_s("toy.inner") == pytest.approx(10e-9)
    # a nested span of the same set is covered by its ancestor, not counted twice
    assert trace.inclusive_s("toy.outer", "toy.inner") == pytest.approx(16e-9)
    assert trace.layer_self_s("toy") == pytest.approx(16e-9)
    assert rec.spans == [] and rec.stack == []


def test_span_recorded_when_the_call_raises():
    rec = spans.Recorder(clock=FakeClock())

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        rec.wrap("toy.boom", boom)()
    assert rec.take().calls("toy.boom") == 1
    assert rec.stack == []


@pytest.fixture
def toy_package(tmp_path, monkeypatch):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .base import double  # noqa: F401\n")
    (pkg / "base.py").write_text(textwrap.dedent("""
        def double(x):
            return 2 * x

        class Box:
            def get(self):
                return double(self.value)

            def __init__(self, value):
                self.value = value
    """))
    (pkg / "user.py").write_text(textwrap.dedent("""
        from .base import Box, double

        def quad(x):
            return double(double(x))

        def boxed(x):
            return Box(x).get()
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "toypkg"
    for name in [m for m in sys.modules if m == "toypkg" or m.startswith("toypkg.")]:
        del sys.modules[name]


def test_tracer_wraps_every_name_a_function_is_looked_up_by(toy_package):
    import toypkg
    from toypkg import base, user

    original = base.double
    rec = spans.Recorder()
    tracer = spans.Tracer(rec, package=toy_package,
                          traced={"base": ("double", "Box.__init__", "Box.get"), "user": ("quad",)})
    tracer.install()
    try:
        assert user.quad(3) == 12 and user.boxed(4) == 8
        assert toypkg.double is base.double is user.double is not original
    finally:
        tracer.uninstall()
    assert toypkg.double is base.double is user.double is original
    trace = rec.take()
    assert trace.calls("base.double") == 3
    assert trace.calls("base.Box.__init__") == 1 and trace.calls("base.Box.get") == 1
    quad = trace.by_name["user.quad"][0]
    assert all(trace.spans[i][1] == quad for i in trace.by_name["base.double"][:2])


def test_layer_metric_names_are_unique_and_units_valid():
    names = list(spans.LAYER_METRICS)
    assert len(names) == len(set(names))
    for name, (unit, _) in spans.LAYER_METRICS.items():
        assert name.split(".")[0] in spans.LAYERS
        assert unit in ("s", "ms", "count", "B", "ratio")
