"""The frame ledger: one tally per link or tenant, one schema, one check.

Every frame a serving surface is offered ends in exactly one terminal
outcome from :data:`OUTCOMES`.  :class:`~repro.serve.engine.InferenceEngine`
links and :class:`~repro.fleet.Fleet` tenants each hold one
:class:`FrameLedger`, and ``link_stats``, ``Fleet.counters``,
``Fleet.detach`` and ``Fleet.detached_ledger`` all return its
:meth:`FrameLedger.stats` dict.  Two identities close it:

``offered == frames_in + rejected + quarantined + rate_limited``

``frames_in + repaired == answered + lost + pending``

where ``repaired`` counts the gap repairer's synthetic fills, ``lost``
the admitted frames that ended in a loss outcome (:data:`LOST`) and
``pending`` the frames still queued.  :func:`offered` gives the first
identity's right-hand side, :func:`unaccounted` evaluates the second
and :func:`mismatches` compares a stats dict with the
observer's event-side :meth:`~repro.obs.observer.Observer.ledger`, the
independent cross-check.  This module is the only place the stats keys
are paired with the observer's outcome names.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .exceptions import ConfigurationError

#: Every terminal outcome a frame can end in (the observer's ledger order).
OUTCOMES = (
    "answered", "rejected", "quarantined", "policy_rejected", "stale",
    "overflow", "rate_limited", "deadline_expired", "shed",
)

#: Outcomes decided at the front door: the frame is never admitted.
REFUSED = ("rejected", "quarantined", "rate_limited")

#: Outcomes of admitted frames that were not answered.
LOST = tuple(o for o in OUTCOMES if o != "answered" and o not in REFUSED)

#: The keys of :meth:`FrameLedger.stats`, in order.
STATS_KEYS = (
    "frames_in", "frames_out", "fallback_frames", "stale_dropped",
    "rejected", "quarantined", "repaired", "policy_rejected",
    "rate_limited", "deadline_expired", "overflow", "overload_shed",
)

#: The stats key that counts each outcome.
_OUTCOME_KEYS = {
    "answered": "frames_out",
    "rejected": "rejected",
    "quarantined": "quarantined",
    "policy_rejected": "policy_rejected",
    "stale": "stale_dropped",
    "overflow": "overflow",
    "rate_limited": "rate_limited",
    "deadline_expired": "deadline_expired",
    "shed": "overload_shed",
}


class FrameLedger:
    """One plain ``int`` per count; the hot paths increment attributes."""

    __slots__ = STATS_KEYS

    def __init__(self) -> None:
        for key in STATS_KEYS:
            setattr(self, key, 0)

    def stats(self) -> dict[str, int]:
        """The public tally dict, keyed and ordered by :data:`STATS_KEYS`."""
        return {key: getattr(self, key) for key in STATS_KEYS}


def outcomes(stats: Mapping[str, int]) -> dict[str, int]:
    """A stats dict's counts under the outcome names of :data:`OUTCOMES`."""
    return {outcome: stats[key] for outcome, key in _OUTCOME_KEYS.items()}


def total(stats: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Key-wise sum of stats dicts (several links behind one observer)."""
    out = dict.fromkeys(STATS_KEYS, 0)
    for one in stats:
        for key in STATS_KEYS:
            out[key] += one[key]
    return out


def offered(stats: Mapping[str, int]) -> int:
    """Frames submitted: the admitted ones plus the :data:`REFUSED` ones."""
    counts = outcomes(stats)
    return stats["frames_in"] + sum(counts[o] for o in REFUSED)


def unaccounted(stats: Mapping[str, int], pending: int = 0) -> int:
    """``frames_in + repaired - answered - lost - pending``; zero when exact."""
    counts = outcomes(stats)
    resolved = counts["answered"] + sum(counts[o] for o in LOST)
    return stats["frames_in"] + stats["repaired"] - resolved - pending


def mismatches(
    stats: Mapping[str, int], ledger: Mapping[str, int]
) -> dict[str, tuple[int, int]]:
    """Where ``stats`` and an ``Observer.ledger()`` disagree; empty if nowhere.

    Compares ``submitted`` with the offered count (refused frames were
    submitted but never admitted), ``fills`` with ``repaired`` and every
    outcome with its stats key.  Values are ``(stats side, observer side)``.
    Raises :class:`~repro.exceptions.ConfigurationError` when ``ledger``
    lacks a count, as the ``{}`` of an untraced surface does: there is
    nothing to cross-check against.
    """
    expected = {
        "submitted": offered(stats),
        "fills": stats["repaired"],
        **outcomes(stats),
    }
    if not expected.keys() <= ledger.keys():
        raise ConfigurationError("observer ledger is incomplete; is it traced?")
    return {
        name: (value, ledger[name])
        for name, value in expected.items()
        if ledger[name] != value
    }
