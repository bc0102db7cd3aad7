"""Span recording and self time."""

import numpy as np

from repro.serve.engine import InferenceEngine
from repro.serve.queue import MicroBatchQueue
from servebench.drive import run_phase
from servebench.tracing import CALLS, Tracer, self_times
from servebench.workloads import WORKLOADS, make_inputs


def test_self_time_subtracts_direct_children_only():
    # 0 [0, 10] -> 1 [1, 4] -> 2 [2, 3];  0 -> 3 [5, 9];  4 [11, 12] alone
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    own = self_times(parent, end - start)
    np.testing.assert_allclose(own, [10 - 3 - 4, 3 - 1, 1, 4, 1])
    # Self times add up to the wall time the top-level spans cover.
    assert own.sum() == (end - start)[parent < 0].sum()


def test_tracer_records_nesting_and_restores_the_program():
    originals = {name: vars(InferenceEngine)[name] for name in ("submit", "flush")}
    push = vars(MicroBatchQueue)["push"]
    inputs = make_inputs(WORKLOADS["engine-clean"], seed=5, seconds=0.1)
    tracer = Tracer()
    with tracer:
        assert vars(InferenceEngine)["submit"] is not originals["submit"]
        phase, _ = run_phase(inputs, inputs.closed, "closed")
    assert {n: vars(InferenceEngine)[n] for n in originals} == originals
    assert vars(MicroBatchQueue)["push"] is push

    spans = tracer.spans.arrays()
    layer = np.array([c[0] for c in CALLS])[spans["call"]]
    submits = np.flatnonzero(layer == "serve.engine")
    assert submits.size == len(inputs.closed) + 1  # every submit plus the flush
    assert (spans["parent"][submits] == -1).all()
    pushes = np.flatnonzero(layer == "serve.queue")
    assert (layer[spans["parent"][pushes]] == "serve.engine").all()
    assert (spans["end"] >= spans["start"]).all()

    values = tracer.layer_metrics(len(inputs.closed))
    for bypassed in ("guard.validation", "overload.limiter", "obs.observer", "fleet.service"):
        assert values[f"{bypassed}.calls"] == 0
    assert values["fastpath.plan.calls"] > 0 and values["fastpath.plan.rows_per_call"] > 1
    assert values["serve.engine.batch_size_mean"] > 1
    assert len(phase.results) == len(inputs.closed)
