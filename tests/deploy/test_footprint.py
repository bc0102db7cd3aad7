"""Tests for the flash/RAM footprint accounting."""

import pytest

from repro.core.model_zoo import build_paper_mlp
from repro.deploy.footprint import (
    NUCLEO_L432KC,
    DeviceProfile,
    estimate_footprint,
)
from repro.exceptions import DeploymentError
from repro.fastpath import InferencePlan


def plan_of(model, quantize="int8"):
    return InferencePlan.from_model(model, quantize=quantize)


class TestNucleoProfile:
    def test_l432kc_resources(self):
        assert NUCLEO_L432KC.flash_bytes == 256 * 1024
        assert NUCLEO_L432KC.ram_bytes == 64 * 1024
        assert NUCLEO_L432KC.clock_hz == 80e6

    def test_rejects_degenerate_device(self):
        with pytest.raises(DeploymentError):
            DeviceProfile("bad", 0, 1024, 1e6)


class TestEstimateFootprint:
    def test_quantized_paper_mlp_fits_l432kc(self):
        # The paper's deployability claim: the occupancy MLP runs on the
        # Nucleo-L432KC.  Quantized, ~74 k int8 weights plus per-channel
        # scales ~= 76 KiB flash.
        report = estimate_footprint(plan_of(build_paper_mlp(66)))
        assert report.fits
        assert report.model_flash_kib < 100.0
        assert report.model_ram_kib < 8.0

    def test_float_model_is_4x_larger(self):
        model = build_paper_mlp(64)
        float_report = estimate_footprint(plan_of(model, None))
        quant_report = estimate_footprint(plan_of(model))
        ratio = float_report.model_flash_bytes / quant_report.model_flash_bytes
        assert 3.5 < ratio < 4.1

    def test_model_size_same_ballpark_as_paper(self):
        # The paper reports 15.18 KiB; exact match is impossible (their
        # count includes framework overhead) but the order matches for the
        # quantized net within ~10x and for int8 the KiB range is right.
        report = estimate_footprint(plan_of(build_paper_mlp(66, hidden_sizes=(64, 64))))
        assert 1.0 < report.model_flash_kib < 50.0

    def test_oversized_model_reported_not_fitting(self):
        huge = build_paper_mlp(64, hidden_sizes=(512, 512, 512))
        report = estimate_footprint(plan_of(huge, None))  # float32: ~2.4 MB
        assert not report.fits

    def test_describe_mentions_device(self):
        report = estimate_footprint(plan_of(build_paper_mlp(64)))
        text = report.describe()
        assert "Nucleo-L432KC" in text
        assert "FITS" in text

    def test_utilisation_fractions(self):
        report = estimate_footprint(plan_of(build_paper_mlp(64)))
        assert 0.0 < report.flash_utilisation < 1.0
        assert 0.0 < report.ram_utilisation < 1.0

    def test_batch_buffer_scales_ram(self):
        q = plan_of(build_paper_mlp(64))
        single = estimate_footprint(q, batch_buffer_rows=1)
        double = estimate_footprint(q, batch_buffer_rows=2)
        assert double.model_ram_bytes == 2 * single.model_ram_bytes

    def test_ram_is_the_same_in_every_storage_mode(self):
        # Every mode executes in float32, so the activation double buffer
        # (input included) does not depend on how the weights are stored:
        # 64->16->8->1 holds the two widest, 4 * (64 + 16) = 320 B.
        model = build_paper_mlp(64, hidden_sizes=(16, 8))
        rams = {
            mode: estimate_footprint(plan_of(model, mode)).model_ram_bytes
            for mode in (None, "int8", "float16")
        }
        assert rams == {None: 320, "int8": 320, "float16": 320}

    def test_flash_is_the_stored_artifact(self):
        model = build_paper_mlp(66)
        for mode in (None, "int8", "float16"):
            plan = plan_of(model, mode)
            assert estimate_footprint(plan).model_flash_bytes == plan.parameter_bytes()
        # Paper network: int8 codes + per-channel scales + float32 biases.
        assert estimate_footprint(plan_of(model)).model_flash_bytes == 78_216
        assert estimate_footprint(plan_of(model, None)).model_flash_bytes == 298_500

    def test_rejects_bad_batch_rows(self):
        with pytest.raises(DeploymentError):
            estimate_footprint(plan_of(build_paper_mlp(8)), batch_buffer_rows=0)
