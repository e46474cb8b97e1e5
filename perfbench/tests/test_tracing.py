"""Span arithmetic and wrapper installation of the benchmark's tracer."""

import numpy as np
import pytest

import spinlab
import spinlab.ensembles
import spinlab.hamiltonian
import spinlab.ogp
import spinlab.optimizers
import spinlab.parisi.pde
import spinlab.rng
import spinlab.runner
import spinlab.ultrametric
from spinlab.errors import ArgumentError
from tracing import METRICS, TARGETS, Tracer, layer_metrics, self_times, summarize


def span(sid, parent, name, start, end, **attrs):
    return {"id": sid, "parent": parent, "name": name, "replica": 0,
            "start": start, "end": end, "error": False, **attrs}


def test_self_time_subtracts_child_durations():
    spans = [
        span(0, None, "ogp.branching", 0.0, 10.0),
        span(1, 0, "ensembles.sample", 1.0, 4.0),
        span(2, 1, "hamiltonian.sample", 2.0, 3.0),
        span(3, 0, "optimizers.gradient_ascent", 5.0, 9.0),
        span(4, 3, "hamiltonian.gradient", 5.5, 6.0),
        span(5, 3, "hamiltonian.gradient", 6.0, 7.5),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 0.5, 5: 1.5})
    # properly nested spans: self times add up to the root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_summarize_sums_busy_time_and_attributes_per_name_and_layer():
    spans = [
        span(0, None, "parisi.pde.objective", 0.0, 10.0),
        span(1, 0, "parisi.pde.solve", 2.0, 5.0, gh_steps=4, self_check_delta_max=1e-8),
        span(2, None, "parisi.pde.solve", 11.0, 12.0, gh_steps=2, self_check_delta_max=3e-8),
    ]
    table = summarize(spans)
    solve = table["parisi.pde.solve"]
    assert solve["calls"] == 2
    assert solve["busy_s"] == pytest.approx(4.0)
    assert solve["self_s"] == pytest.approx(4.0)
    assert solve["gh_steps"] == 6
    assert solve["self_check_delta_max"] == pytest.approx(3e-8)
    assert table["parisi.pde.objective"]["self_s"] == pytest.approx(7.0)
    layer = table["parisi.pde"]
    assert layer["calls"] == 3 and layer["self_s"] == pytest.approx(11.0)
    assert "busy_s" not in layer


def test_layer_metrics_cover_every_metric_and_count_matvecs_under_eig():
    spans = [
        span(0, None, "hamiltonian.eig", 0.0, 4.0),
        span(1, 0, "hamiltonian.hessian_apply", 0.5, 1.0, tensor_bytes=80),
        span(2, 0, "hamiltonian.hessian_apply", 1.0, 1.5, tensor_bytes=80),
        span(3, None, "hamiltonian.eig", 5.0, 6.0),
        span(4, 3, "hamiltonian.hessian", 5.0, 5.5, tensor_bytes=40),
        span(5, None, "hamiltonian.hessian_apply", 7.0, 8.0, tensor_bytes=80),
    ]
    spans[5]["error"] = True
    values = layer_metrics(spans, overhead_s=0.25)
    assert list(values) == [name for name, _unit in METRICS]
    assert values["hamiltonian.eig.matvecs_per_call"] == pytest.approx(1.0)
    assert values["hamiltonian.tensor_bytes"] == 280
    assert values["hamiltonian.errors"] == 1
    assert values["hamiltonian.self_s"] == pytest.approx(6.0)
    assert values["tracing.self_s_total"] == pytest.approx(6.0)
    assert values["parisi.pde.solve.calls"] == 0
    assert values["tracing.overhead_s"] == 0.25


def _bound_functions():
    """(owner, attribute) -> object for every traced binding site."""
    import sys

    names = {t[2].split(".")[-1] for t in TARGETS}
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "spinlab" or modname.startswith("spinlab."):
            for attr in names & set(vars(mod)):
                out[(modname, attr)] = getattr(mod, attr)
    cls = spinlab.ensembles.CorrelatedEnsemble
    out[("CorrelatedEnsemble", "leaf_hamiltonian")] = cls.__dict__["leaf_hamiltonian"]
    return out


def test_wrappers_are_installed_everywhere_and_fully_removed():
    before = _bound_functions()
    h = spinlab.sample_hamiltonian(spinlab.pure(2), 8, 1)
    x = np.ones(8)
    tracer = Tracer()
    tracer.install()
    try:
        for key, fn in _bound_functions().items():
            assert fn is not before[key], key
        spinlab.energy(h, x)
        spinlab.optimizers.hessian(h, x)
        with pytest.raises(ArgumentError):
            spinlab.hamiltonian.gradient(h, np.ones(3))
        with tracer.paused():
            spinlab.energy(h, x)
    finally:
        tracer.uninstall()
    assert _bound_functions() == before
    names = [s["name"] for s in tracer.spans]
    assert names == ["hamiltonian.energy", "hamiltonian.hessian", "hamiltonian.gradient"]
    assert [s["error"] for s in tracer.spans] == [False, False, True]
    # an untraced run in the same interpreter reaches the originals
    spinlab.energy(h, x)
    spinlab.parisi.pde.parisi_is(spinlab.PiecewiseZeta.zero(), spinlab.pure(2), grid=(4.0, 0.04))
    assert len(tracer.spans) == 3
    assert spinlab.rng.stream is before[("spinlab.rng", "stream")]
