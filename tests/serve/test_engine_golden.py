"""Untraced engine golden: a seeded episode replays to a committed fixture.

The golden traces in ``tests/obs`` pin what a *traced* engine reports.
This one pins the untraced hot path, the one the serving benchmark
measures: a seeded multi-link stream through an engine with no observer,
recorded down to the byte — every :class:`InferenceResult` (by ``repr``,
so field values, float digits and types all count), every ticket
outcome, every link's ``link_stats``/health/state, the registry's
``as_dict()`` (key order included) and its Prometheus exposition.

The episode covers debouncer flips, malformed frames at the shape gate,
a window where the primary fails and batches go to the fallback and
links recover DEGRADED -> HEALTHY afterwards, a stale drop (which also
degrades and then recovers its link), and an overflow eviction through
the per-link queue credit.

``batch_latency_ms`` is wall clock, so only its sample count is kept.
The estimator is elementwise arithmetic (no reductions, no
transcendental functions), so the probabilities are the same on every
IEEE-754 machine.  Regenerate the fixture only for an intended change of
behaviour::

    PYTHONPATH=src python tests/serve/test_engine_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.obs import render_prometheus
from repro.serve.config import ServeConfig
from repro.serve.engine import InferenceEngine

FIXTURE = Path(__file__).with_name("engine_untraced_golden.json")

N_LINKS = 6
WIDTH = 8
PERIOD_S = 0.05
STEPS = 160
#: Steps during which the primary raises, so batches go to the fallback.
OUTAGE = range(40, 60)
#: Steps after which the whole registry snapshot is recorded too.
CHECKPOINTS = (0, 45, 90, 120)
#: Wall-clock histogram: only its count is deterministic.
WALL_CLOCK = "batch_latency_ms"


class ScriptedEstimator:
    """Elementwise probability from the first two columns; can be downed."""

    def __init__(self) -> None:
        self.down = False

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.down:
            raise RuntimeError("primary outage")
        x = np.asarray(x)
        return np.clip(0.75 * x[:, 0] + 0.25 * x[:, 1], 0.0, 1.0)


def _row(rng: np.random.Generator, occupied: bool) -> np.ndarray:
    row = rng.random(WIDTH)
    vote = occupied != (rng.random() < 0.1)  # 10% of frames vote wrong
    row[0] = 0.55 + 0.45 * row[0] if vote else 0.45 * row[0]
    return row


def _metrics(engine: InferenceEngine) -> dict:
    metrics = engine.registry.as_dict()
    if WALL_CLOCK in metrics:
        metrics[WALL_CLOCK] = {"count": metrics[WALL_CLOCK]["count"]}
    return metrics


def run_episode(seed: int = 12) -> dict:
    rng = np.random.default_rng(seed)
    primary = ScriptedEstimator()
    engine = InferenceEngine(
        primary,
        ServeConfig(
            max_batch=8,
            max_latency_ms=100.0,
            queue_capacity=32,
            queue_credit=3,
            stale_after_s=0.5,
        ),
    )
    links = [f"room-{i}" for i in range(N_LINKS)]
    occupied = [bool(rng.random() < 0.5) for _ in links]
    results = []
    outcomes = []
    # The queue_depth gauge as read after every public call returns.
    depths = []
    checkpoints = {}
    for step in range(STEPS):
        t_s = step * PERIOD_S
        primary.down = step in OUTAGE
        for i, link in enumerate(links):
            if rng.random() < 1.0 / 40.0:
                occupied[i] = not occupied[i]
            if step == 30 and i == 1:
                row = _row(rng, occupied[i])
                row[3] = np.nan
            elif step == 31 and i == 2:
                row = np.ones((2, WIDTH))
            else:
                row = _row(rng, occupied[i])
            if i % 2:
                ticket = engine.submit_frame(link, t_s, row)
                outcomes.append([ticket.frame_id, ticket.outcome])
                results.extend(ticket.results)
            else:
                results.extend(engine.submit(link, t_s, row))
            depths.append(engine.registry.gauges["queue_depth"].value)
        if step == 90:
            # A frame a full second late: dropped stale at its flush.
            results.extend(engine.submit(links[3], t_s - 1.0, _row(rng, occupied[3])))
        if step == 120:
            # A burst past the per-link credit evicts the link's own oldest.
            for _ in range(5):
                results.extend(engine.submit(links[4], t_s, _row(rng, occupied[4])))
        if step in CHECKPOINTS:
            checkpoints[str(step)] = _metrics(engine)
    results.extend(engine.flush())
    depths.append(engine.registry.gauges["queue_depth"].value)

    exposition = [
        line
        for line in render_prometheus(engine.registry).splitlines()
        if not line.startswith(
            (f"repro_{WALL_CLOCK}{{", f"repro_{WALL_CLOCK}_sum")
        )
    ]
    return {
        "results": [repr(result) for result in results],
        "outcomes": outcomes,
        "links": {
            link: {
                "stats": engine.link_stats(link),
                "health": engine.health(link).value,
                "state": engine.state(link),
            }
            for link in engine.link_ids
        },
        "depths": depths,
        "checkpoints": checkpoints,
        "metrics": _metrics(engine),
        "exposition": exposition,
    }


def _dump(episode: dict) -> str:
    return json.dumps(episode, indent=1) + "\n"


def _first_difference(actual: str, expected: str) -> str:
    """The first differing line, so a failure reports without a huge diff."""
    pairs = zip(actual.splitlines(), expected.splitlines())
    for number, (got, want) in enumerate(pairs, start=1):
        if got != want:
            return f"line {number}: got {got.strip()!r}, fixture has {want.strip()!r}"
    return "one text is a prefix of the other"


class TestUntracedEngineGolden:
    def test_episode_matches_the_committed_fixture(self):
        actual, expected = _dump(run_episode()), FIXTURE.read_text()
        identical = actual == expected
        assert identical, _first_difference(actual, expected)

    def test_episode_covers_every_path_it_pins(self):
        episode = run_episode()
        metrics = episode["metrics"]
        assert metrics["transitions"] > 0
        assert metrics["frames_rejected"] == 2
        assert metrics["fallback_frames"] > 0
        assert metrics["link_recovered_total"] > N_LINKS  # outage + stale
        assert metrics["frames_dropped_stale"] == 1
        assert metrics["frames_dropped_overflow"] >= 1
        assert all(link["health"] == "healthy" for link in episode["links"].values())
        answered = sum(link["stats"]["frames_out"] for link in episode["links"].values())
        assert answered == len(episode["results"])

    def test_fixture_has_teeth(self):
        # Reseeding must move the recorded episode.
        moved = _dump(run_episode(seed=13)) != FIXTURE.read_text()
        assert moved


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_engine_golden.py --write")
    FIXTURE.write_text(_dump(run_episode()))
