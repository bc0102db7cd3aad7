"""The output check catches what it is meant to catch."""

import dataclasses

import numpy as np
import pytest

from repro.data.streaming import SmoothingDebouncer
from servebench.check import check_phase, replay
from servebench.drive import run_phase
from servebench.workloads import WORKLOADS, make_inputs


@pytest.fixture(scope="module")
def guarded():
    inputs = make_inputs(WORKLOADS["engine-guarded"], seed=3, seconds=1.5)
    phase, _ = run_phase(inputs, inputs.closed, "closed")
    return inputs, phase


@pytest.fixture(scope="module")
def fleet():
    inputs = make_inputs(WORKLOADS["fleet-churn"], seed=3, seconds=1.0)
    phase, _ = run_phase(inputs, inputs.closed, "closed")
    return inputs, phase


def _with_results(phase, results):
    return dataclasses.replace(phase, results=results)


def test_clean_runs_pass(guarded, fleet):
    for inputs, phase in (guarded, fleet):
        verdict = check_phase(inputs, phase)
        assert verdict.errors == []
        assert verdict.unexpected == 0
    inputs, phase = guarded
    verdict = check_phase(inputs, phase)
    assert verdict.fills > 0 and verdict.answered < verdict.offered


def test_fleet_churn_exercises_every_lifecycle_call(fleet):
    _, phase = fleet
    actions = {op.action for op in phase.stream.ops}
    assert actions == {"detach", "attach", "replace"}
    assert len(phase.ledgers) > len(phase.states)  # detached ledgers are read too


def test_perturbed_probability_is_caught(guarded):
    inputs, phase = guarded
    results = list(phase.results)
    results[7] = dataclasses.replace(results[7], probability=results[7].probability + 1e-4)
    errors = check_phase(inputs, _with_results(phase, results)).errors
    assert any(e.startswith("probability") for e in errors)


def test_perturbed_fill_is_caught(guarded):
    inputs, phase = guarded
    results = list(phase.results)
    j = next(j for j, r in enumerate(results) if r.repaired)
    results[j] = dataclasses.replace(results[j], probability=1.0 - results[j].probability)
    errors = check_phase(inputs, _with_results(phase, results)).errors
    assert any(e.startswith("probability") for e in errors)


def test_dropped_frame_is_caught(guarded, fleet):
    for inputs, phase in (guarded, fleet):
        results = list(phase.results)
        del results[len(results) // 2]
        errors = check_phase(inputs, _with_results(phase, results)).errors
        assert any(e.startswith("ledger") for e in errors)


def test_wrong_debounced_state_is_caught(guarded):
    inputs, phase = guarded
    results = list(phase.results)
    results[11] = dataclasses.replace(results[11], state=1 - results[11].state)
    errors = check_phase(inputs, _with_results(phase, results)).errors
    assert any(e.startswith("debounce") for e in errors)


def test_wrong_final_state_is_caught(guarded):
    inputs, phase = guarded
    link = next(iter(phase.states))
    states = dict(phase.states, **{link: 1 - phase.states[link]})
    errors = check_phase(inputs, dataclasses.replace(phase, states=states)).errors
    assert any(e.startswith("debounce") for e in errors)


def test_replay_matches_the_serving_debouncer():
    votes = np.random.default_rng(0).random(5000) < 0.5
    debouncer = SmoothingDebouncer(5, 3)
    expected = []
    for vote in votes.tolist():
        flipped = debouncer.update(int(vote))
        expected.append((debouncer.state, flipped is not None))
    assert replay([int(v) for v in votes]) == expected
