"""The benchmark tracer can wrap every traced layer and puts the library back.

`perfbench/run.py --trace 1` patches the functions and per-class methods
listed in `perfbench/workloads.py`.  A refactor that leaves a traced method
inherited instead of bound in its class, or changes a traced call's
arguments, breaks the traced run; this test catches it in the test suite.
"""

import os
import sys

import numpy as np
import pytest

from elegant import fixtures, gnn

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    import workloads

    return tracing, workloads


def _library_modules():
    return {n: m for n, m in list(sys.modules.items()) if m is not None and (n == "elegant" or n.startswith("elegant."))}


def test_tracer_wraps_every_layer_and_restores_it(bench):
    tracing, workloads = bench
    modules = {n: dict(vars(m)) for n, m in _library_modules().items()}
    methods = {name: cls.__dict__[attr] for name, (cls, attr, _) in workloads.TRACED_METHODS.items()}
    g, X, _ = fixtures.make_small()
    model = gnn.GcnModel.init(np.random.default_rng(0), d=X.shape[1], hidden=8)
    ops = model.build_ops(g)
    deltas = np.zeros((3, 2, X.shape[1]))

    tracer = tracing.Tracer()
    with tracer.installed(workloads.TRACED_FUNCTIONS, workloads.TRACED_METHODS):
        for name, (cls, attr, _) in workloads.TRACED_METHODS.items():
            assert cls.__dict__[attr] is not methods[name], name
        for name, (fn, _) in workloads.TRACED_FUNCTIONS.items():
            assert getattr(sys.modules[fn.__module__], fn.__name__) is not fn, name
        with tracer.root("op", "test"):
            # out by keyword: the gflop counter unpacks exactly five positional arguments
            classes = model.forward_many(ops, X, [0, 1], deltas, out=np.empty((3, g.n), np.uint8))
            model.forward(ops, X)
    spans = {sp.name: sp for sp in tracer.spans}
    assert spans["gnn.forward_many"].counts["gflop"] > 0
    assert "gnn.forward" in spans
    assert classes.shape == (3, g.n)

    for name, (cls, attr, _) in workloads.TRACED_METHODS.items():
        assert cls.__dict__[attr] is methods[name], name
    for name, module in _library_modules().items():
        before = modules.get(name, {})
        assert all(vars(module)[k] is v for k, v in before.items()), name
