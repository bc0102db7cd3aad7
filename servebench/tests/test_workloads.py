"""Seeded inputs, throughput windows and the metric table the benchmark publishes."""

import json
from pathlib import Path

import numpy as np

from servebench.bench import END_TO_END, per_layer_metrics
from servebench.check import check_phase
from servebench.drive import Phase, run_phase
from servebench.workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parents[2]


def _arrays(inputs):
    out = {"rows": inputs.rows, "reference": inputs.reference}
    for label in ("closed", "open"):
        stream = getattr(inputs, label)
        for field in ("stream", "due", "stamp", "row", "cohort", "kind"):
            out[f"{label}.{field}"] = getattr(stream, field)
    return out


def test_same_seed_gives_identical_inputs():
    for name in WORKLOADS:
        a, b = (make_inputs(WORKLOADS[name], seed=9, seconds=1.0) for _ in range(2))
        for key, value in _arrays(a).items():
            np.testing.assert_array_equal(value, _arrays(b)[key], err_msg=f"{name} {key}")
        assert a.closed.ops == b.closed.ops and a.closed.ids == b.closed.ids
        c = make_inputs(WORKLOADS[name], seed=10, seconds=1.0)
        assert not np.array_equal(a.closed.row, c.closed.row)


def test_same_seed_gives_identical_answered_ratio():
    inputs = make_inputs(WORKLOADS["engine-guarded"], seed=4, seconds=1.5)
    ratios = []
    for _ in range(2):
        phase, _ = run_phase(inputs, inputs.closed, "closed")
        verdict = check_phase(inputs, phase)
        ratios.append((verdict.answered, verdict.offered, verdict.fills))
    assert ratios[0] == ratios[1]
    assert ratios[0][0] < ratios[0][1]


def test_no_throughput_window_spans_a_pause():
    phase = Phase(stream=None)
    # 100 answers/s for 2 s, a 10 s pause, then 400 answers/s for 2 s.
    phase.marks = [(0, 0.0), (100, 1.0), (200, 2.0), (300, 12.0), (700, 13.0), (1100, 14.0)]
    phase.breaks = [3]
    assert phase.rate() == (200 + 800) / 4.0
    assert phase.fastest_rate(150) == 400.0
    # No segment holds 1000 answers, so the whole phase's rate is used.
    assert phase.fastest_rate(1000) == phase.rate()


def test_a_paused_closed_loop_answers_every_frame():
    inputs = make_inputs(WORKLOADS["fleet-churn"], seed=3, seconds=1.0)
    pauses = []
    phase, _ = run_phase(inputs, inputs.closed, "closed", pause=lambda: pauses.append(1))
    verdict = check_phase(inputs, phase)
    assert pauses == [1] and len(phase.breaks) == 1
    assert not verdict.errors and verdict.answered == verdict.offered


def test_flip_rate_is_near_the_stated_rate():
    inputs = make_inputs(WORKLOADS["engine-clean"], seed=2, seconds=1.0)
    phase, _ = run_phase(inputs, inputs.closed, "closed")
    flips = sum(r.transition is not None for r in phase.results)
    assert 0.015 < flips / len(phase.results) < 0.035


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer_metrics()
