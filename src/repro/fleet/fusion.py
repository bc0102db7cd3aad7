"""Shape-stable tiled execution and the cross-tenant fusion scheduler.

**Why a tiled runner exists.**  The byte-identity gate demands that a
frame's probability not depend on *which other frames* shared its GEMM
call.  Plain variable-batch BLAS breaks that: OpenBLAS selects different
kernels (GEMV vs GEMM, different blocking) for different row counts, so
``plan.predict_proba`` over 7 rows and over the same rows concatenated
with another tenant's 9 are not bitwise-equal row-for-row.  The
:class:`TiledPlanRunner` removes batch shape from the equation entirely:
every GEMM in every call runs at exactly ``tile`` rows (the final
partial tile zero-padded, pad outputs discarded), and the float64
logistic tail runs per tile at fixed length too.  With every kernel
invocation shape-fixed, a row's output is a function of the row alone —
verified property-style in ``tests/fleet`` — so fused and per-tenant
dispatch agree to the byte *by construction*, not by luck.

**What the scheduler does.**  Per tick it receives one
:class:`TenantBatch` per tenant with pending frames, groups them by
:class:`~repro.fleet.registry.PlanSignature`, row-concatenates each
multi-tenant cohort into a single tiled run over the cohort's shared
weights, and scatters the probabilities back per tenant.  Odd-one-out
architectures (singleton cohorts) fall back to per-tenant dispatch
through the same tiled runner.  The per-signature runner cache means a
thousand rooms sharing one model also share one set of scratch buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from ..fastpath.plan import _LOGIT_CLIP, InferencePlan, _apply_activation_inplace
from .registry import PlanSignature
from .router import TenantFrame


class TiledPlanRunner:
    """Runs a frozen plan's arithmetic at a fixed GEMM tile size.

    Conforms to the ``predict_proba`` half of the estimator protocol.
    Slightly slower than :meth:`InferencePlan.predict_proba` for large
    batches (partial-tile padding wastes some FLOPs) — the price of
    batch-shape-independent, hence fusable, numerics.  Scratch buffers
    are allocated once per runner and reused across calls.
    """

    def __init__(self, plan: InferencePlan, tile: int = 16) -> None:
        if tile < 1:
            raise ConfigurationError("tile must be >= 1")
        if plan.n_outputs != 1:
            raise ShapeError(
                f"TiledPlanRunner serves single-output plans, got {plan.n_outputs}"
            )
        self.tile = int(tile)
        self._exec = plan.exec_steps
        self._n_inputs = plan.n_inputs
        #: Plans ending in a fused sigmoid are already probabilities.
        self._squash = plan.steps[-1].activation != "sigmoid"
        self._stage = np.zeros((self.tile, plan.n_inputs), dtype=np.float32)
        self._buffers = [
            np.empty((self.tile, weight.shape[1]), dtype=np.float32)
            for weight, _, _ in self._exec
        ]
        self._tail = np.empty(self.tile, dtype=np.float64)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """P(occupied) per row, shape (n,), batch-shape-independent."""
        # asarray, not ascontiguousarray: the per-tile staging copy below
        # absorbs any striding, so forcing contiguity up front would only
        # duplicate it.
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self._n_inputs:
            raise ShapeError(
                f"TiledPlanRunner({self._n_inputs} inputs) got input {x.shape}"
            )
        n = x.shape[0]
        out = np.empty(n, dtype=float)
        tile, stage, tail = self.tile, self._stage, self._tail
        for start in range(0, n, tile):
            stop = min(start + tile, n)
            k = stop - start
            stage[:k] = x[start:stop]
            if k < tile:
                stage[k:] = np.float32(0.0)
            current = stage
            for (weight, bias, activation), buffer in zip(self._exec, self._buffers):
                np.dot(current, weight, out=buffer)
                if bias is not None:
                    buffer += bias
                if activation != "none":
                    _apply_activation_inplace(buffer, activation)
                current = buffer
            # Fixed-length float64 tail: the elementwise logistic also runs
            # at tile width every call, so ufunc vectorisation boundaries
            # cannot differ between fused and per-tenant invocations.
            tail[:] = current[:, 0]
            if self._squash:
                np.maximum(tail, -_LOGIT_CLIP, out=tail)
                np.minimum(tail, _LOGIT_CLIP, out=tail)
                np.negative(tail, out=tail)
                np.exp(tail, out=tail)
                tail += 1.0
                np.reciprocal(tail, out=tail)
            out[start:stop] = tail[:k]
        return out


@dataclass
class TenantBatch:
    """One tenant's pending work for a scheduling tick."""

    tenant_id: str
    signature: PlanSignature
    plan: InferencePlan
    frames: list[TenantFrame]
    rows: np.ndarray  # (len(frames), n_inputs)


@dataclass
class TickOutcome:
    """What one scheduler tick did, plus the scattered probabilities."""

    #: tenant_id → probabilities aligned with that tenant's frames.
    probabilities: dict[str, np.ndarray] = field(default_factory=dict)
    fused_groups: int = 0
    unfused_groups: int = 0
    fused_frames: int = 0
    unfused_frames: int = 0

    @property
    def total_frames(self) -> int:
        return self.fused_frames + self.unfused_frames


class FusionScheduler:
    """Groups per-tenant batches by plan signature and runs each cohort.

    ``fusion_enabled=False`` degrades every cohort to per-tenant
    dispatch — the control arm of the ``fleet-bench`` comparison and the
    reference side of the byte-identity gate.
    """

    def __init__(self, tile: int = 16, fusion_enabled: bool = True) -> None:
        if tile < 1:
            raise ConfigurationError("tile must be >= 1")
        self.tile = int(tile)
        self.fusion_enabled = bool(fusion_enabled)
        self._runners: dict[PlanSignature, TiledPlanRunner] = {}

    def runner_for(self, signature: PlanSignature, plan: InferencePlan) -> TiledPlanRunner:
        """The (cached) tiled runner shared by every tenant of a cohort."""
        runner = self._runners.get(signature)
        if runner is None:
            runner = TiledPlanRunner(plan, tile=self.tile)
            self._runners[signature] = runner
        return runner

    def evict(self, signature: PlanSignature) -> bool:
        """Drop a cohort's cached runner (its last tenant detached or
        re-planned); returns True when a runner was actually cached.

        Under churn, plans come and go with their tenants — without
        eviction the runner cache (and its scratch buffers) would grow
        monotonically with every signature the fleet has *ever* served.
        """
        return self._runners.pop(signature, None) is not None

    @property
    def cached_runners(self) -> int:
        """Signatures currently holding a cached runner."""
        return len(self._runners)

    def run_tick(self, batches: list[TenantBatch]) -> TickOutcome:
        """Execute one tick's worth of pending tenant batches."""
        outcome = TickOutcome()
        cohorts: dict[PlanSignature, list[TenantBatch]] = {}
        for batch in batches:
            if not batch.frames:
                continue
            cohorts.setdefault(batch.signature, []).append(batch)
        for signature, members in cohorts.items():
            runner = self.runner_for(signature, members[0].plan)
            if self.fusion_enabled and len(members) > 1:
                stacked = np.concatenate([m.rows for m in members], axis=0)
                fused = runner.predict_proba(stacked)
                offset = 0
                for member in members:
                    n = len(member.frames)
                    outcome.probabilities[member.tenant_id] = fused[offset:offset + n]
                    offset += n
                    outcome.fused_frames += n
                outcome.fused_groups += 1
            else:
                for member in members:
                    outcome.probabilities[member.tenant_id] = runner.predict_proba(
                        member.rows
                    )
                    outcome.unfused_frames += len(member.frames)
                    outcome.unfused_groups += 1
        return outcome
