#!/usr/bin/env python3
"""A service that saturates — and degrades on purpose instead of by luck.

An unprotected engine under a burst storm fails *implicitly*: the
bounded queue silently drops whoever is oldest, latency grows without
bound first, and one hot link starves every quiet one.  This example
turns on the overload control plane (``repro.overload``) and drives the
same bursty traffic through it:

* a **per-link token bucket** clips the hot link to its reserved rate —
  refusals are typed ``FrameTicket`` outcomes (``"rate_limited"``), not
  silent drops, and the quiet links never lose a frame;
* a **deadline budget** sheds frames at dequeue once they are too old
  to be worth serving (``"deadline_expired"`` — served-late is a lie a
  ledger should not allow);
* **queue credit** caps one link's share of the shared queue, so
  backpressure lands on the link that caused it;
* a **saturation governor** steps the degradation ladder
  FULL -> FASTPATH_ONLY -> FALLBACK_ONLY -> SHED under pressure and
  probes its way back down after calm, with hysteresis and backoff.

Every decision runs on the frame-timestamp clock (same seed, same
traffic, byte-identical decisions), and the observer's frame ledger
closes exactly: every submitted frame ends in precisely one typed
outcome.

Usage::

    python examples/overloaded_service.py
"""

import numpy as np

from repro.fastpath.plan import InferencePlan
from repro.ledger import unaccounted
from repro.nn.modules import Linear, ReLU, Sequential
from repro.obs import Observer
from repro.overload import OverloadPolicy
from repro.serve.config import ServeConfig
from repro.serve.engine import InferenceEngine

N_INPUTS = 16


def make_traffic(rng, duration_s=60.0, cold_hz=4.0, hot_hz=40.0):
    """One hot link bursting at 10x the rate of three cold links."""
    arrivals = []
    for link in ("cold-a", "cold-b", "cold-c"):
        for k in range(int(duration_s * cold_hz)):
            arrivals.append((k / cold_hz, link))
    for k in range(int(duration_s * hot_hz)):
        t = k / hot_hz
        if (t // 10.0) % 2 == 0:  # square-wave bursts: 10 s on, 10 s off
            arrivals.append((t, "hot"))
    arrivals.sort()
    return arrivals


def main() -> None:
    rng = np.random.default_rng(7)
    model = Sequential(
        Linear(N_INPUTS, 16, rng=rng), ReLU(), Linear(16, 1, rng=rng)
    )
    plan = InferencePlan.from_model(model)

    observer = Observer(label="overloaded-demo")
    engine = InferenceEngine(
        plan,
        ServeConfig(
            max_batch=16,
            max_latency_ms=None,
            queue_capacity=64,
            auto_flush=False,         # we model finite service capacity
            rate_limit_hz=8.0,        # each link's reserved admission rate
            rate_limit_burst=16.0,    # burst credit on top of it
            deadline_ms=2000.0,       # serve within 2 s of capture or shed
            queue_credit=32,          # one link's max share of the queue
            overload=OverloadPolicy(seed=7),
            observer=observer,
        ),
    )
    engine.attach_fastpath(plan)      # what FASTPATH_ONLY serves

    service_hz = 25.0                 # the capacity the storm overwhelms
    stall = (20.0, 28.0)              # a window where service loses its CPU
    credit = 0.0
    last_t = 0.0
    outcomes = {}
    peak = engine.mode
    for t_s, link in make_traffic(rng):
        row = np.abs(rng.normal(size=N_INPUTS)) + 0.1
        ticket = engine.submit_frame(link, t_s, row)
        outcomes[ticket.outcome] = outcomes.get(ticket.outcome, 0) + 1
        credit += (t_s - last_t) * service_hz
        last_t = t_s
        if stall[0] <= t_s < stall[1]:
            credit = 0.0              # stalled: admission without service
        elif credit >= 1.0:           # spend accumulated service capacity
            engine.pump(int(credit), now_s=t_s)
            credit -= int(credit)
            if engine.mode.severity > peak.severity:
                peak = engine.mode
    engine.flush()                    # shutdown: nothing may stay pending
    print(f"governor peaked at {peak.value}, ended at {engine.mode.value}")

    print("admission outcomes:", dict(sorted(outcomes.items())))
    for link in sorted(engine.link_ids):
        stats = engine.link_stats(link)
        print(
            f"  {link:7s} in={stats['frames_in']:5d} "
            f"served={stats['frames_out']:5d} "
            f"rate_limited={stats['rate_limited']:4d} "
            f"deadline_expired={stats['deadline_expired']:3d} "
            f"overflow={stats['overflow']:3d} shed={stats['overload_shed']:3d}"
        )

    # The hot link pays for its own burst: only it is ever rate limited.
    # The stall costs the cold links frames too — but every loss is a
    # *typed* outcome (deadline_expired / overflow / shed), never silent.
    for link in ("cold-a", "cold-b", "cold-c"):
        stats = engine.link_stats(link)
        assert stats["rate_limited"] == 0, link
        assert unaccounted(stats) == 0, link
    assert engine.link_stats("hot")["rate_limited"] > 0

    ledger = observer.ledger()
    print("ledger:", ledger)
    assert ledger["unaccounted"] == 0 and ledger["pending"] == 0
    print("every frame ended in exactly one typed outcome — ledger closed.")


if __name__ == "__main__":
    main()
