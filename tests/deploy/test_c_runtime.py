"""Tests for the generated C inference runtime."""

import numpy as np
import pytest

from repro.baselines.scaler import StandardScaler
from repro.core.model_zoo import build_paper_mlp
from repro.deploy.c_runtime import (
    _ACTIVATIONS,
    compile_firmware,
    generate_inference_source,
    host_compiler,
    run_firmware,
    validate_against_python,
    write_firmware_bundle,
)
from repro.deploy.export import export_c_header, export_plan, load_plan
from repro.exceptions import DeploymentError
from repro.fastpath import InferencePlan
from repro.fastpath.plan import PLAN_ACTIVATIONS
from repro.nn.modules import Dropout, Linear, Sequential, Sigmoid, Tanh

HAS_CC = host_compiler() is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no host C compiler")


def _scaler(n_inputs, seed=0):
    rng = np.random.default_rng(seed)
    return StandardScaler().fit(rng.normal(5.0, 2.0, size=(64, n_inputs)))


def _with_biases(model, seed=2):
    """Non-zero biases (fresh layers start at zero, which hides a lost add)."""
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        if isinstance(layer, Linear) and layer.bias is not None:
            layer.bias.data = rng.normal(size=layer.bias.data.shape)
    return model


def _small_plan(quantize=None, scaled=False):
    model = _with_biases(build_paper_mlp(8, hidden_sizes=(16, 8)))
    scaler = _scaler(8) if scaled else None
    return InferencePlan.from_model(model, scaler=scaler, quantize=quantize)


def _biasless_plan(quantize=None):
    # A bias-less step and a Dropout (dropped by the plan) in one model.
    rng = np.random.default_rng(1)
    model = Sequential(
        Linear(8, 16, bias=False, rng=rng),
        Tanh(),
        Dropout(0.5),
        Linear(16, 4, rng=rng),
        Sigmoid(),
    )
    _with_biases(model)
    return InferencePlan.from_model(model, scaler=_scaler(8), quantize=quantize)


@pytest.fixture(scope="module")
def small_quantized():
    return _small_plan("int8")


class TestSourceGeneration:
    def test_source_structure(self, small_quantized):
        source = generate_inference_source(small_quantized)
        assert '#include "model.h"' in source
        assert "static void infer(" in source
        assert "int main(void)" in source
        # One matmul block per layer.
        assert source.count("/* layer") == 3

    def test_activations_emitted(self, small_quantized):
        source = generate_inference_source(small_quantized)
        assert "v > 0.0f ? v : 0.0f" in source  # ReLU kernels

    def test_bundle_written(self, small_quantized, tmp_path):
        header, source = write_firmware_bundle(small_quantized, tmp_path / "fw")
        assert header.exists() and source.exists()
        assert header.parent == source.parent

    def test_int8_layers_rescale_per_channel(self, small_quantized):
        source = generate_inference_source(small_quantized)
        assert source.count("v *= repro_ws") == 3
        assert "repro_ws" not in generate_inference_source(_small_plan())

    def test_scaler_standardises_raw_inputs(self):
        assert "repro_input_mean" not in generate_inference_source(_small_plan())
        source = generate_inference_source(_small_plan(scaled=True))
        assert "(input[k] - repro_input_mean[k]) / repro_input_scale[k]" in source

    def test_biasless_step_skips_the_bias_add(self):
        source = generate_inference_source(_biasless_plan())
        assert "repro_b0" not in source
        assert "v += repro_b1[o];" in source

    def test_every_plan_activation_has_a_c_kernel(self):
        assert set(_ACTIVATIONS) == set(PLAN_ACTIVATIONS)


class TestOneArtifact:
    @pytest.mark.parametrize("quantize", [None, "int8", "float16"])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_header_from_reloaded_npz_is_byte_identical(
        self, quantize, scaled, tmp_path
    ):
        plan = _small_plan(quantize, scaled)
        loaded = load_plan(export_plan(plan, tmp_path / "plan.npz"))
        direct = export_c_header(plan, tmp_path / "direct.h").read_bytes()
        reloaded = export_c_header(loaded, tmp_path / "reloaded.h").read_bytes()
        assert direct == reloaded


@needs_cc
class TestCompileAndRun:
    @pytest.mark.parametrize("quantize", [None, "int8", "float16"])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_parity_matrix(self, quantize, scaled, tmp_path):
        plan = _small_plan(quantize, scaled)
        deviation = validate_against_python(plan, tmp_path, n_probes=32)
        assert deviation < 1e-3

    @pytest.mark.parametrize("quantize", [None, "int8"])
    def test_biasless_and_dropout_parity(self, quantize, tmp_path):
        deviation = validate_against_python(
            _biasless_plan(quantize), tmp_path, n_probes=32
        )
        assert deviation < 1e-3

    def test_paper_network_matches(self, tmp_path):
        plan = InferencePlan.from_model(
            _with_biases(build_paper_mlp(66)), scaler=_scaler(66), quantize="int8"
        )
        deviation = validate_against_python(plan, tmp_path, n_probes=16)
        assert deviation < 1e-3

    def test_run_firmware_row_accounting(self, small_quantized, tmp_path):
        _, source = write_firmware_bundle(small_quantized, tmp_path)
        binary = compile_firmware(source, tmp_path / "fw")
        out = run_firmware(binary, np.zeros((5, 8)))
        assert out.shape == (5, 1)
        # Same input rows -> identical outputs.
        assert np.all(out == out[0])

    def test_broken_source_raises(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("int main(void) { return 0 }")  # missing semicolon
        with pytest.raises(DeploymentError):
            compile_firmware(bad, tmp_path / "bad")
