"""Section IV-B / VI — model footprint and inference latency.

The paper reports: ~78 k trainable parameters (77,881 with typos; the
exact architecture gives 74,369 for CSI-only input), a model size of
15.18 KiB, 23.04 KiB RAM, 10.781 ms inference per sample, deployable on a
Nucleo-L432KC.  The benchmark reproduces the resource accounting from the
served artifact itself — an int8 (per-channel) :class:`InferencePlan`
through the footprint and cycle models — checks the C firmware generated
from that plan against it, and measures the host-side inference latency.
"""

import pytest

from repro.core.model_zoo import build_paper_mlp, paper_layer_parameter_counts
from repro.deploy.footprint import NUCLEO_L432KC, estimate_footprint
from repro.deploy.timing import cortex_m4_latency_ms, measure_inference_ms
from repro.fastpath import InferencePlan

from .conftest import print_table


@pytest.fixture(scope="module")
def paper_model():
    return build_paper_mlp(66)  # the full CSI+Env input of Section IV-B


@pytest.fixture(scope="module")
def float_plan(paper_model):
    return InferencePlan.from_model(paper_model)


@pytest.fixture(scope="module")
def quantized(float_plan):
    return float_plan.quantized("int8")


class TestFootprint:
    def test_parameter_accounting(self, paper_model, benchmark):
        counts = benchmark(lambda: paper_layer_parameter_counts(66))
        rows = [
            {"layer": i + 1, "paper": paper, "measured": measured}
            for i, (paper, measured) in enumerate(
                zip([8320, 33024, 32846, 129], paper_layer_parameter_counts(64))
            )
        ]
        print_table("Section IV-B: per-layer parameter counts (CSI input)", rows)
        assert paper_model.n_parameters() == sum(counts)
        # Paper's first/second/fourth layer counts match the 64-input net
        # exactly; the third (32,846) is a typo for 32,896 — see DESIGN.md.
        measured64 = paper_layer_parameter_counts(64)
        assert measured64[0] == 8320
        assert measured64[1] == 33024
        assert measured64[3] == 129

    def test_deployability_on_l432kc(self, quantized, benchmark):
        report = benchmark(lambda: estimate_footprint(quantized, NUCLEO_L432KC))
        m4_ms = cortex_m4_latency_ms(quantized)
        rows = [
            {"quantity": "parameter bytes (KiB)", "paper": 15.18,
             "measured (int8)": round(report.model_flash_kib, 2)},
            {"quantity": "RAM (KiB)", "paper": 23.04,
             "measured (int8)": round(report.model_ram_kib, 2)},
            {"quantity": "inference (ms)", "paper": 10.781,
             "measured (int8)": round(m4_ms, 3)},
        ]
        print_table("Deployment accounting: paper vs measured", rows)
        assert report.fits, report.describe()
        # Order-of-magnitude agreement with the paper's numbers.
        assert 10.0 < report.model_flash_kib < 200.0
        assert report.model_ram_kib < 23.04 * 4
        assert 0.1 < m4_ms < 50.0
        # Per-channel int8: 74,112 codes + 513 scales + 513 float32 biases.
        assert report.model_flash_bytes == 78_216
        assert report.model_ram_bytes == 1_536

    def test_host_inference_latency(self, paper_model, benchmark):
        latency_ms = benchmark.pedantic(
            lambda: measure_inference_ms(paper_model, 66, n_repeats=50, warmup=5),
            rounds=1,
            iterations=1,
        )
        # The paper measures 10.781 ms on their setup; the numpy host
        # implementation of the same network should be no slower than
        # ~10x that.
        assert latency_ms < 100.0

    def test_quantization_preserves_size_ratio(self, float_plan, quantized, benchmark):
        benchmark(lambda: estimate_footprint(quantized).model_flash_bytes)
        float_report = estimate_footprint(float_plan)
        int8_report = estimate_footprint(quantized)
        assert float_report.model_flash_bytes == 298_500
        assert int8_report.model_flash_bytes < float_report.model_flash_bytes / 3
        assert int8_report.model_ram_bytes == float_report.model_ram_bytes

    def test_generated_firmware_matches_python(self, quantized, benchmark, tmp_path):
        # The shipped artifact is the tested artifact: generate the C
        # inference program from the served int8 plan, compile it with the
        # host compiler, run it and compare against ``plan.forward``.
        from repro.deploy.c_runtime import host_compiler, validate_against_python

        if host_compiler() is None:
            pytest.skip("no host C compiler")
        deviation = benchmark.pedantic(
            lambda: validate_against_python(quantized, tmp_path, n_probes=16),
            rounds=1,
            iterations=1,
        )
        print_table(
            "Firmware validation (C vs the int8 InferencePlan)",
            [{"quantity": "max |output delta|", "value": f"{deviation:.2e}"}],
        )
        assert deviation < 1e-3
