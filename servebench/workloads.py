"""The three serving workloads and the seeded inputs each one replays.

Everything a run feeds the program comes from here and from ``--seed``
alone: a pool of CSI rows, the frozen paper MLP(s) that score them, and
per phase a time-ordered frame stream (which link or tenant sends which
pool row at which stream time) plus, for the fleet, a churn schedule.
The program under test only ever sees the rows, timestamps and
lifecycle calls these describe.

Rows are drawn per link from occupancy episodes.  The pool is split by
the reference plan's own output into an "occupied" part (p >= 0.55) and
an "empty" part (p <= 0.45); a link alternates between occupied and
empty episodes of geometric length (mean :data:`EPISODE_FRAMES`), and
:data:`NOISE_SHARE` of its frames come from the opposite part.  The
debouncer (window 5, hold 3) therefore commits about one flip per
episode: a stated rate of 1/40 = 0.025 flips per answered frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.scaler import StandardScaler
from repro.core.model_zoo import build_paper_mlp
from repro.fastpath.plan import InferencePlan
from repro.guard.drift import ReferenceStats

#: Sniffer frame rate of the paper's deployment (one frame per 50 ms).
FRAME_HZ = 20.0
PERIOD_S = 1.0 / FRAME_HZ
N_FEATURES = 64
POOL_ROWS = 4096
#: Mean occupancy-episode length in frames (2 s at 20 Hz).
EPISODE_FRAMES = 40
#: Share of frames inside an episode drawn from the opposite class.
NOISE_SHARE = 0.05
#: Stream seconds at the start of each phase that are served but not timed.
WARMUP_S = 0.5
#: Stream seconds between two churn operations on ``fleet-churn``.
CHURN_EVERY_S = 0.25

# Frame kinds: what the frame is, and so which outcome it should get.
CLEAN = 0  # answered
NAN_ROW = 1  # refused at the shape/finite gate ("rejected")
OUT_OF_ENVELOPE = 2  # refused by the validator ("quarantined")
REGRESSED = 3  # timestamp behind the link's newest frame ("quarantined")
OVER_RATE = 4  # sent by the link that runs at twice its rate limit

# Per-frame probabilities of each kind of dirt on ``engine-guarded``.
DIRT_NAN = 0.004
DIRT_OUT_OF_ENVELOPE = 0.004
DIRT_REGRESSED = 0.002
DIRT_GAP = 0.004  # a cadence gap of 1-3 frames starts here
#: How far (stream seconds) a regressed timestamp jumps back.
REGRESSION_S = 0.5123


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one serving surface."""

    name: str
    #: ``"engine"`` (:class:`~repro.serve.engine.InferenceEngine`) or
    #: ``"fleet"`` (:class:`~repro.fleet.service.Fleet`).
    surface: str
    #: Links (engine) or tenant slots (fleet), each sending at 20 Hz.
    streams: int
    #: Closed-loop frames answered per second on the seed commit, on a
    #: 2-core x86 box; sizes the closed-loop phase to about half a run.
    closed_fps_hint: float
    guarded: bool = False

    @property
    def offered_fps(self) -> float:
        return self.streams * FRAME_HZ


WORKLOADS = {
    w.name: w
    for w in (
        Workload("engine-clean", "engine", 512, closed_fps_hint=40_000.0),
        Workload(
            "engine-guarded", "engine", 128, closed_fps_hint=11_000.0, guarded=True
        ),
        Workload("fleet-churn", "fleet", 256, closed_fps_hint=19_000.0),
    )
}


@dataclass(frozen=True)
class ChurnOp:
    """One lifecycle call, made before the first frame due at or after ``t_s``."""

    t_s: float
    action: str  # "detach" | "attach" | "replace"
    stream: int  # index into Stream.ids
    cohort: int  # the tenant's plan cohort after the call


@dataclass
class Stream:
    """One phase's frames in submission order (ascending due time)."""

    #: Link / tenant ids; ``stream`` indexes into this list.
    ids: list[str]
    stream: np.ndarray  # int32
    #: Stream second at which the frame is due to be sent.
    due: np.ndarray  # float64
    #: Timestamp the frame carries (differs from ``due`` only when REGRESSED).
    stamp: np.ndarray  # float64
    row: np.ndarray  # int32 index into Inputs.rows
    #: Plan cohort serving the frame (always 0 on the engine).
    cohort: np.ndarray  # int8
    kind: np.ndarray  # int8
    duration_s: float
    #: Fleet only: tenants attached at set-up, as (stream index, cohort).
    initial: list[tuple[int, int]] = field(default_factory=list)
    ops: list[ChurnOp] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.due.shape[0])

    @property
    def timed_from(self) -> int:
        """Index of the first frame past the warm-up."""
        return int(np.searchsorted(self.due, WARMUP_S, side="left"))

    def head(self, n: int) -> "Stream":
        """The first ``n`` frames, with the churn ops due before the next one."""
        end_s = float(self.due[n]) if n < len(self) else np.inf
        return Stream(
            ids=self.ids,
            stream=self.stream[:n],
            due=self.due[:n],
            stamp=self.stamp[:n],
            row=self.row[:n],
            cohort=self.cohort[:n],
            kind=self.kind[:n],
            duration_s=min(self.duration_s, end_s),
            initial=self.initial,
            ops=[op for op in self.ops if op.t_s < end_s],
        )


@dataclass
class Inputs:
    """Everything one run replays, derived from the seed alone."""

    workload: Workload
    #: Pool rows followed by the dirt rows; float64, shape (n, 64).
    rows: np.ndarray
    #: One paper MLP per plan cohort (the engine uses cohort 0 only).
    models: list
    scaler: StandardScaler
    #: reference[c, i]: offline float32 plan output of cohort c on row i
    #: (NaN for dirt rows, which must never be answered).
    reference: np.ndarray
    #: The pool's statistics: what a deployment stores beside its model and
    #: the guard stack's amplitude envelope and drift sentinel read.
    guard_reference: ReferenceStats
    closed: Stream
    open: Stream


def _pool(rng: np.random.Generator) -> np.ndarray:
    """CSI-like amplitude rows: a subcarrier profile plus low-rank motion."""
    profile = 30.0 + 6.0 * np.sin(np.linspace(0.0, 3.0 * np.pi, N_FEATURES))
    basis = rng.normal(size=(6, N_FEATURES))
    motion = rng.normal(size=(POOL_ROWS, 6)) @ basis
    return profile + motion + rng.normal(scale=1.5, size=(POOL_ROWS, N_FEATURES))


def _centered_model(cohort: int, scaler: StandardScaler, pool: np.ndarray):
    """The paper MLP with its output bias centred on the pool's median logit,
    so both occupancy classes hold about half the pool."""
    model = build_paper_mlp(N_FEATURES, seed=cohort)
    logits = InferencePlan.from_model(model, scaler=scaler).predict_logits(pool)[:, 0]
    model.layers[-1].bias.data -= float(np.median(logits))
    return model


def _dirt_rows(rng: np.random.Generator, pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """16 rows with a NaN and 16 rows far outside the amplitude envelope."""
    nan_rows = pool[rng.integers(0, POOL_ROWS, 16)].copy()
    nan_rows[np.arange(16), rng.integers(0, N_FEATURES, 16)] = np.nan
    span = pool.max(axis=0) - pool.min(axis=0)
    far = pool[rng.integers(0, POOL_ROWS, 16)].copy()
    far[:, ::8] = pool.max(axis=0)[::8] + 20.0 * span[::8]
    return nan_rows, far


def _labels(rng: np.random.Generator, n: int) -> np.ndarray:
    """Occupancy votes for one link: alternating geometric episodes + noise."""
    lengths = rng.geometric(1.0 / EPISODE_FRAMES, size=n // EPISODE_FRAMES + 8)
    while lengths.sum() < n:
        lengths = np.concatenate([lengths, rng.geometric(1.0 / EPISODE_FRAMES, size=8)])
    first = int(rng.integers(2))
    labels = np.repeat((np.arange(lengths.size) + first) % 2, lengths)[:n]
    return labels ^ (rng.random(n) < NOISE_SHARE)


def _pick_rows(
    rng: np.random.Generator,
    labels: np.ndarray,
    cohort: np.ndarray,
    pools: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """A pool row per frame from its cohort's class part."""
    u = rng.random(labels.shape[0])
    out = np.empty(labels.shape[0], dtype=np.int32)
    for c, parts in enumerate(pools):
        for label, part in enumerate(parts):
            mask = (cohort == c) & (labels == label)
            out[mask] = part[(u[mask] * part.size).astype(np.int64)]
    return out


def _engine_stream(
    rng: np.random.Generator,
    workload: Workload,
    duration_s: float,
    pools: list[tuple[np.ndarray, np.ndarray]],
    nan_base: int,
    far_base: int,
) -> Stream:
    links = workload.streams
    fps = workload.offered_fps
    per_link = int(round(duration_s * FRAME_HZ))
    k = np.arange(per_link * links)
    stream = (k % links).astype(np.int32)
    step = k // links
    due = k / fps
    labels = np.empty(k.size, dtype=np.int64)
    for link in range(links):
        labels[link::links] = _labels(rng, per_link)
    cohort = np.zeros(k.size, dtype=np.int8)
    row = _pick_rows(rng, labels, cohort, pools)
    stamp = due.copy()
    kind = np.zeros(k.size, dtype=np.int8)
    keep = np.ones(k.size, dtype=bool)
    if workload.guarded:
        u = rng.random(k.size)
        # Link 0 is the over-rate sender and carries no other dirt; the
        # first second of every link stays clean so a regressed stamp is
        # always behind a frame the link really had admitted.
        eligible = (stream != 0) & (step >= int(FRAME_HZ))
        edges = np.cumsum([DIRT_NAN, DIRT_OUT_OF_ENVELOPE, DIRT_REGRESSED, DIRT_GAP])
        is_nan = eligible & (u < edges[0])
        is_far = eligible & (u >= edges[0]) & (u < edges[1])
        is_reg = eligible & (u >= edges[1]) & (u < edges[2])
        is_gap = eligible & (u >= edges[2]) & (u < edges[3])
        kind[is_nan] = NAN_ROW
        row[is_nan] = nan_base + rng.integers(0, 16, int(is_nan.sum()))
        kind[is_far] = OUT_OF_ENVELOPE
        row[is_far] = far_base + rng.integers(0, 16, int(is_far.sum()))
        kind[is_reg] = REGRESSED
        stamp[is_reg] = due[is_reg] - REGRESSION_S
        for start in np.flatnonzero(is_gap):
            length = int(rng.integers(1, 4))
            keep[start : start + length * links : links] = False
        # The over-rate link sends a second frame half a period (plus half
        # a slot, so no two frames share a timestamp) after each of its own.
        base = np.flatnonzero(stream == 0)
        extra_due = due[base] + PERIOD_S / 2 + 0.5 / fps
        kind[base] = OVER_RATE
        extra_rows = _pick_rows(rng, labels[base], cohort[base], pools)
        stream = np.concatenate([stream[keep], stream[base]])
        due = np.concatenate([due[keep], extra_due])
        stamp = np.concatenate([stamp[keep], extra_due])
        row = np.concatenate([row[keep], extra_rows])
        cohort = np.concatenate([cohort[keep], cohort[base]])
        kind = np.concatenate([kind[keep], np.full(base.size, OVER_RATE, np.int8)])
        order = np.argsort(due, kind="stable")
        stream, due, stamp, row, cohort, kind = (
            a[order] for a in (stream, due, stamp, row, cohort, kind)
        )
    return Stream(
        ids=[f"L{link:04d}" for link in range(links)],
        stream=stream,
        due=due,
        stamp=stamp,
        row=row,
        cohort=cohort,
        kind=kind,
        duration_s=duration_s,
    )


def _fleet_stream(
    rng: np.random.Generator,
    workload: Workload,
    duration_s: float,
    pools: list[tuple[np.ndarray, np.ndarray]],
) -> Stream:
    slots = workload.streams
    fps = workload.offered_fps
    ids = [f"T{slot:04d}" for slot in range(slots)]
    cohort_of = [slot % 2 for slot in range(slots)]
    initial = [(slot, cohort_of[slot]) for slot in range(slots)]
    # Per slot, the (time, tenant, cohort) segments its frames fall into.
    segments: list[list[tuple[float, int, int]]] = [
        [(-np.inf, slot, cohort_of[slot])] for slot in range(slots)
    ]
    tenant_in = list(range(slots))
    ops: list[ChurnOp] = []
    free_slot = -1
    actions = ("detach", "attach", "replace")
    n_ops = int((duration_s - WARMUP_S) / CHURN_EVERY_S)
    for j in range(n_ops):
        # Half a slot past the grid, so an op never ties with a frame.
        t = WARMUP_S + (j + 1) * CHURN_EVERY_S + 0.5 / fps
        action = actions[j % 3]
        if action == "attach":
            slot = free_slot
            tenant = len(ids)
            ids.append(f"T{tenant:04d}")
            cohort_of.append(int(rng.integers(2)))
            tenant_in[slot] = tenant
        else:
            occupied = [s for s in range(slots) if tenant_in[s] >= 0]
            slot = occupied[int(rng.integers(len(occupied)))]
            tenant = tenant_in[slot]
            if action == "detach":
                tenant_in[slot] = -1
                free_slot = slot
            else:
                cohort_of[tenant] = 1 - cohort_of[tenant]
        ops.append(ChurnOp(t, action, tenant, cohort_of[tenant]))
        segments[slot].append((t, tenant_in[slot], cohort_of[tenant]))

    per_slot = int(round(duration_s * FRAME_HZ))
    k = np.arange(per_slot * slots)
    slot_of = k % slots
    due = k / fps
    tenant = np.empty(k.size, dtype=np.int32)
    cohort = np.empty(k.size, dtype=np.int8)
    labels = np.empty(k.size, dtype=np.int64)
    for slot in range(slots):
        mine = slice(slot, None, slots)
        seg_t = np.array([s[0] for s in segments[slot]])
        at = np.searchsorted(seg_t, due[mine], side="right") - 1
        tenant[mine] = np.array([s[1] for s in segments[slot]])[at]
        cohort[mine] = np.array([s[2] for s in segments[slot]])[at]
        labels[mine] = _labels(rng, per_slot)
    live = tenant >= 0
    row = _pick_rows(rng, labels[live], cohort[live], pools)
    return Stream(
        ids=ids,
        stream=tenant[live],
        due=due[live],
        stamp=due[live].copy(),
        row=row,
        cohort=cohort[live],
        kind=np.zeros(int(live.sum()), dtype=np.int8),
        duration_s=duration_s,
        initial=initial,
        ops=ops,
    )


def closed_seconds(workload: Workload, seconds: float) -> float:
    """Stream seconds of the closed-loop phase: about ``seconds / 2`` of
    wall time at the seed commit's capacity."""
    return WARMUP_S + 0.5 * seconds * workload.closed_fps_hint / workload.offered_fps


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """All inputs of one run; the same seed gives identical inputs."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    pool = _pool(rng)
    scaler = StandardScaler().fit(pool)
    n_cohorts = 2 if workload.surface == "fleet" else 1
    models = [_centered_model(c, scaler, pool) for c in range(n_cohorts)]
    reference_pool = np.stack(
        [InferencePlan.from_model(m, scaler=scaler).predict_proba(pool) for m in models]
    )
    pools = []
    for probs in reference_pool:
        parts = (np.flatnonzero(probs <= 0.45), np.flatnonzero(probs >= 0.55))
        if min(p.size for p in parts) < POOL_ROWS // 8:
            raise RuntimeError("reference plan leaves a class part nearly empty")
        pools.append(parts)
    nan_rows, far_rows = _dirt_rows(rng, pool)
    rows = np.concatenate([pool, nan_rows, far_rows])
    reference = np.full((n_cohorts, rows.shape[0]), np.nan)
    reference[:, :POOL_ROWS] = reference_pool
    open_s = WARMUP_S + 0.5 * seconds
    if workload.surface == "engine":
        phases = [
            _engine_stream(rng, workload, s, pools, POOL_ROWS, POOL_ROWS + 16)
            for s in (closed_seconds(workload, seconds), open_s)
        ]
    else:
        phases = [
            _fleet_stream(rng, workload, s, pools)
            for s in (closed_seconds(workload, seconds), open_s)
        ]
    return Inputs(
        workload=workload,
        rows=rows,
        models=models,
        scaler=scaler,
        reference=reference,
        guard_reference=ReferenceStats.fit(pool),
        closed=phases[0],
        open=phases[1],
    )
