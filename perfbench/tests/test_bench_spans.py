"""Span recording and self-time arithmetic."""

import sys
import types

import pytest

from spans import Span, Tracer, covered, self_times


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert covered([(1.0, 2.0), (0.0, 5.0)]) == pytest.approx(5.0)


def test_self_time_of_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (running past the root's end); a has a child d [2, 3].
    spans = [
        Span(0, "root", 0.0, 10.0, None, "w"),
        Span(1, "a", 1.0, 4.0, 0, "w"),
        Span(2, "b", 3.0, 6.0, 0, "w"),
        Span(3, "c", 8.0, 12.0, 0, "w"),
        Span(4, "d", 2.0, 3.0, 1, "w"),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)


def test_wrapped_calls_nest_and_unwrap(monkeypatch):
    module = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner = inner
    module.outer = outer
    monkeypatch.setitem(sys.modules, "fake_layer", module)

    ticks = iter(range(100))
    tracer = Tracer("w", clock=lambda: float(next(ticks)))
    tracer.wrap("fake_layer.outer", "layer.outer")
    tracer.wrap("fake_layer.inner", "layer.inner", describe=lambda a, k, r: {"value": r})
    tracer.wrap("fake_layer.gone", "layer.gone")
    assert module.outer(1) == 4
    tracer.unwrap_all()
    assert module.outer is outer and module.inner is inner

    assert tracer.missing == ["fake_layer.gone"]
    outer_span, inner_span = tracer.spans
    assert (outer_span.name, outer_span.parent) == ("layer.outer", None)
    assert (inner_span.name, inner_span.parent) == ("layer.inner", 0)
    assert inner_span.attrs == {"value": 2}
    assert tracer.self_total("layer.outer") == pytest.approx(outer_span.duration - inner_span.duration)
    # Each wrapper reads the clock once before opening and once after
    # closing its span: one tick on each side, per call.
    assert tracer.overhead == pytest.approx(4.0)


def test_wraps_a_method_on_a_class(monkeypatch):
    module = types.ModuleType("fake_transport")

    class Transport:
        def __call__(self, x):
            return x

    module.Transport = Transport
    monkeypatch.setitem(sys.modules, "fake_transport", module)
    tracer = Tracer("w")
    tracer.wrap("fake_transport.Transport.__call__", "harness.transport")
    assert Transport()(3) == 3
    tracer.unwrap_all()
    assert tracer.count("harness.transport") == 1
