"""Tests for the inference-latency models."""

import pytest

from repro.core.model_zoo import build_paper_mlp
from repro.deploy.footprint import DeviceProfile, NUCLEO_L432KC
from repro.deploy.timing import cortex_m4_latency_ms, measure_inference_ms
from repro.exceptions import DeploymentError
from repro.fastpath import InferencePlan


def quantized(model):
    return InferencePlan.from_model(model, quantize="int8")


class TestCycleModel:
    def test_paper_mlp_latency_ms_scale(self):
        # The paper reports 10.781 ms per sample on the full feature set.
        # The M4 cycle model for the same architecture should land in the
        # same order of magnitude (single-digit milliseconds).
        q = quantized(build_paper_mlp(66))
        latency = cortex_m4_latency_ms(q)
        assert 0.5 < latency < 30.0
        assert latency == pytest.approx(1.66, abs=0.005)

    def test_storage_mode_does_not_change_the_cycle_model(self):
        model = build_paper_mlp(66)
        assert cortex_m4_latency_ms(InferencePlan.from_model(model)) == (
            cortex_m4_latency_ms(quantized(model))
        )

    def test_latency_scales_with_width(self):
        small = quantized(build_paper_mlp(64, hidden_sizes=(32,)))
        large = quantized(build_paper_mlp(64, hidden_sizes=(512, 512)))
        assert cortex_m4_latency_ms(large) > 10 * cortex_m4_latency_ms(small)

    def test_faster_clock_lowers_latency(self):
        q = quantized(build_paper_mlp(64))
        fast_device = DeviceProfile("fast", 2**20, 2**18, 160e6)
        assert cortex_m4_latency_ms(q, fast_device) == pytest.approx(
            cortex_m4_latency_ms(q, NUCLEO_L432KC) / 2
        )


class TestHostMeasurement:
    def test_measures_float_model(self):
        model = build_paper_mlp(8, hidden_sizes=(16,))
        latency = measure_inference_ms(model, 8, n_repeats=20, warmup=2)
        assert 0.0 < latency < 100.0

    def test_measures_quantized_model(self):
        q = quantized(build_paper_mlp(8, hidden_sizes=(16,)))
        latency = measure_inference_ms(q, 8, n_repeats=20, warmup=2)
        assert 0.0 < latency < 100.0

    def test_rejects_bad_parameters(self):
        model = build_paper_mlp(4, hidden_sizes=(8,))
        with pytest.raises(DeploymentError):
            measure_inference_ms(model, 4, n_repeats=0)


class TestPlanMeasurement:
    def test_measures_frozen_plan(self):
        from repro.fastpath import InferencePlan

        plan = InferencePlan.from_model(build_paper_mlp(8, hidden_sizes=(16,)))
        latency = measure_inference_ms(plan, 8, n_repeats=20, warmup=2)
        assert 0.0 < latency < 100.0

    def test_plan_not_slower_than_tensor_path(self):
        from repro.fastpath import InferencePlan

        model = build_paper_mlp(64, hidden_sizes=(128, 256, 128))
        plan = InferencePlan.from_model(model)
        tensor_ms = measure_inference_ms(model, 64, n_repeats=40, warmup=5)
        plan_ms = measure_inference_ms(plan, 64, n_repeats=40, warmup=5)
        # The acceptance bar is 3x in the bench; here just guard the sign
        # so a CI machine under load cannot flake the suite.
        assert plan_ms < tensor_ms
