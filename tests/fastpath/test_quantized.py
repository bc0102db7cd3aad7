"""Quantized inference plans: accuracy gates, round-trips, footprint.

The storage contract under test: quantization is a *storage* transform —
int8 codes (symmetric per-output-channel scales) or float16 casts are
dequantized once at construction into the same float32 execution steps
every plan runs, so a quantized plan is an ordinary plan with smaller
serialized weights.  Consequences verified here:

* predictions stay within the perf-bench accuracy gates versus the
  float32 plan (max |Δp| and decision-flip rate);
* ``export_plan``/``load_plan`` round-trips are **bit-identical** (the
  stored codes are reloaded, never re-quantized) with dtype and scale
  metadata intact in the archive;
* ``parameter_bytes()`` reflects the stored artifact, beating the
  float32 footprint and the paper's 15 KiB deployment target.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.scaler import StandardScaler
from repro.core.model_zoo import build_paper_mlp
from repro.deploy.export import export_plan, load_plan
from repro.exceptions import ConfigurationError
from repro.fastpath import InferencePlan
from repro.nn.modules import Linear, Sequential
from repro.fastpath.bench import QUANT_DELTA_GATES, QUANT_FLIP_GATE, PLAN_BYTES_TARGET


def _fitted_scaler(n_inputs, rng):
    scaler = StandardScaler()
    scaler.fit(rng.normal(loc=2.0, scale=1.5, size=(256, n_inputs)))
    return scaler


def _plans(n_inputs=12, hidden=(32, 16), seed=0, quantize=None):
    rng = np.random.default_rng(seed)
    model = build_paper_mlp(n_inputs, hidden_sizes=hidden, seed=seed)
    scaler = _fitted_scaler(n_inputs, rng)
    plan = InferencePlan.from_model(model, scaler=scaler, quantize=quantize)
    probe = rng.normal(loc=2.0, scale=1.5, size=(512, n_inputs))
    return plan, probe


class TestAccuracyGates:
    @pytest.mark.parametrize("mode", ["int8", "float16"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quantized_predictions_within_gates(self, mode, seed):
        plan, probe = _plans(seed=seed)
        quant = plan.quantized(mode)
        p32 = plan.predict_proba(probe)
        pq = quant.predict_proba(probe)
        max_delta = float(np.max(np.abs(pq - p32)))
        flips = float(np.mean((pq >= 0.5) != (p32 >= 0.5)))
        assert max_delta <= QUANT_DELTA_GATES[mode]
        assert flips <= QUANT_FLIP_GATE

    def test_float16_is_tighter_than_int8(self):
        plan, probe = _plans(seed=7)
        p32 = plan.predict_proba(probe)
        delta16 = np.max(np.abs(plan.quantized("float16").predict_proba(probe) - p32))
        delta8 = np.max(np.abs(plan.quantized("int8").predict_proba(probe) - p32))
        assert delta16 <= delta8


class TestConstruction:
    def test_invalid_mode_raises(self):
        plan, _ = _plans()
        with pytest.raises(ConfigurationError, match="quantize"):
            plan.quantized("int4")
        model = build_paper_mlp(12, hidden_sizes=(32, 16), seed=0)
        with pytest.raises(ConfigurationError, match="quantize"):
            InferencePlan.from_model(model, quantize="bf16")

    def test_requantizing_a_quantized_plan_raises(self):
        plan, _ = _plans()
        quant = plan.quantized("int8")
        with pytest.raises(ConfigurationError):
            quant.quantized("float16")
        with pytest.raises(ConfigurationError):
            quant.quantized("int8")

    def test_from_model_quantize_matches_quantized_method(self):
        plan, probe = _plans()
        via_kwarg, _ = _plans(quantize="int8")
        via_method = plan.quantized("int8")
        np.testing.assert_array_equal(
            via_kwarg.predict_proba(probe), via_method.predict_proba(probe)
        )

    def test_execution_dtype_stays_float32(self):
        # Quantization is storage-only: runtime steps are always float32.
        plan, _ = _plans(quantize="int8")
        for step in plan.steps:
            assert step.weight.dtype == np.float32

    def test_repr_names_the_mode(self):
        plan, _ = _plans()
        assert "int8" in repr(plan.quantized("int8"))


class TestInt8Codes:
    """The stored int8 codes and per-channel scales, read via ``payload()``."""

    @staticmethod
    def _store(weight):
        layer = Linear(*weight.shape, rng=np.random.default_rng(0))
        layer.weight.data = weight
        arrays, _ = InferencePlan.from_model(Sequential(layer), quantize="int8").payload()
        return arrays["w0"], arrays["ws0"]

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.01, 100.0))
    def test_property_quantization_error_bounded_by_half_lsb(self, magnitude):
        # Columns of very different ranges, so a per-tensor scale would
        # break the bound on the small ones.
        rng = np.random.default_rng(0)
        column_range = np.array([1.0, 10.0, 0.1, 3.0])
        weight = rng.normal(size=(4, 4)) * column_range * magnitude
        codes, scales = self._store(weight)
        w32 = weight.astype(np.float32)
        error = np.abs(codes.astype(np.float32) * scales - w32)
        # Half an LSB of the column's own scale, plus float32 rounding.
        bound = scales / 2 + 2 * np.finfo(np.float32).eps * np.abs(w32)
        assert np.all(error <= bound)

    def test_all_zero_column_gets_codes_zero_and_scale_one(self):
        weight = np.random.default_rng(0).normal(size=(3, 3))
        weight[:, 1] = 0.0
        codes, scales = self._store(weight)
        assert np.all(codes[:, 1] == 0)
        assert scales[1] == 1.0
        assert np.all(np.abs(codes[:, [0, 2]]).max(axis=0) == 127)


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ["int8", "float16"])
    def test_export_load_is_bit_identical(self, tmp_path, mode):
        plan, probe = _plans(seed=4)
        quant = plan.quantized(mode)
        path = export_plan(quant, tmp_path / f"plan_{mode}.npz")
        loaded = load_plan(path)
        assert loaded.quantize == mode
        want = quant.predict_proba(probe)
        got = loaded.predict_proba(probe)
        assert want.tobytes() == got.tobytes()

    def test_export_quantize_kwarg_quantizes_on_the_way_out(self, tmp_path):
        plan, probe = _plans(seed=5)
        path = export_plan(plan, tmp_path / "plan.npz", quantize="int8")
        loaded = load_plan(path)
        assert loaded.quantize == "int8"
        np.testing.assert_array_equal(
            loaded.predict_proba(probe),
            plan.quantized("int8").predict_proba(probe),
        )

    def test_export_conflicting_mode_raises(self, tmp_path):
        plan, _ = _plans()
        quant = plan.quantized("int8")
        with pytest.raises(ConfigurationError):
            export_plan(quant, tmp_path / "plan.npz", quantize="float16")
        # Matching mode is a no-op passthrough, not a re-quantize.
        export_plan(quant, tmp_path / "plan.npz", quantize="int8")

    def test_archive_stores_codes_and_scales(self, tmp_path):
        plan, _ = _plans()
        path = export_plan(plan.quantized("int8"), tmp_path / "plan.npz")
        with np.load(path, allow_pickle=False) as archive:
            weight_keys = sorted(k for k in archive if k.startswith("w") and k[1:].isdigit())
            assert weight_keys
            for key in weight_keys:
                assert archive[key].dtype == np.int8
                scales = archive["ws" + key[1:]]
                assert scales.dtype == np.float32
                assert scales.shape == (archive[key].shape[1],)

        path16 = export_plan(plan.quantized("float16"), tmp_path / "plan16.npz")
        with np.load(path16, allow_pickle=False) as archive:
            assert all(
                archive[k].dtype == np.float16
                for k in archive
                if k.startswith("w") and k[1:].isdigit()
            )


class TestFootprint:
    def test_quantized_artifact_is_smaller(self):
        plan, _ = _plans()
        base = plan.parameter_bytes()
        int8 = plan.quantized("int8").parameter_bytes()
        f16 = plan.quantized("float16").parameter_bytes()
        assert int8 < f16 < base
        # int8 approaches 4x on the weight matrices; float32 biases,
        # scales and scaler stats dilute the ratio on tiny architectures.
        assert base / int8 > 2.5
        # The paper-size detector is weight-dominated: closer to 4x.
        big = InferencePlan.from_model(build_paper_mlp(52, seed=0))
        assert big.parameter_bytes() / big.quantized("int8").parameter_bytes() > 3.5

    def test_paper_architecture_meets_deployment_target_once_quantized(self):
        # The paper's 128-256-128 detector on a 52-subcarrier frame.
        model = build_paper_mlp(52, seed=0)
        plan = InferencePlan.from_model(model)
        assert plan.quantized("int8").parameter_bytes() < plan.parameter_bytes()
        # The small serving architecture beats 15 KiB outright at int8.
        small, _ = _plans(n_inputs=52, hidden=(16, 8), seed=0)
        assert small.quantized("int8").parameter_bytes() <= PLAN_BYTES_TARGET
