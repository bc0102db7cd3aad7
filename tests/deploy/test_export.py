"""Tests for the C header export."""

import numpy as np
import pytest

from repro.baselines.scaler import StandardScaler
from repro.deploy.export import export_c_header
from repro.exceptions import DeploymentError
from repro.fastpath import InferencePlan
from repro.nn.modules import Linear, ReLU, Sequential


def _model(seed=0, bias=True):
    rng = np.random.default_rng(seed)
    return Sequential(Linear(4, 8, bias=bias, rng=rng), ReLU(), Linear(8, 1, rng=rng))


def quantized(seed=0):
    return InferencePlan.from_model(_model(seed), quantize="int8")


def _array(text, name):
    """Parse ``repro_<name>`` back out of a header: (C type, values)."""
    line = next(l for l in text.splitlines() if f" repro_{name}[" in l)
    ctype = line.split()[2]
    body = line.split("{")[1].split("}")[0]
    return ctype, np.array([float(v.rstrip("f")) for v in body.split(",")])


class TestExport:
    def test_header_structure(self, tmp_path):
        path = export_c_header(quantized(), tmp_path / "model.h")
        text = path.read_text()
        assert text.startswith("#ifndef REPRO_MODEL_H")
        assert text.rstrip().endswith("#endif /* REPRO_MODEL_H */")
        assert "#define REPRO_N_LAYERS 2" in text
        assert "#define REPRO_N_INPUTS 4" in text
        assert "#define REPRO_N_OUTPUTS 1" in text

    def test_weight_arrays_emitted(self, tmp_path):
        text = export_c_header(quantized(), tmp_path / "m.h").read_text()
        assert "static const int8_t repro_w0[32]" in text
        assert "static const float repro_ws0[8]" in text
        assert "static const float repro_b0[8]" in text
        assert "static const int8_t repro_w1[8]" in text
        assert "static const float repro_ws1[1]" in text

    def test_layer_metadata(self, tmp_path):
        text = export_c_header(quantized(), tmp_path / "m.h").read_text()
        assert "repro_layer_widths[3] = {4,8,1};" in text
        assert '"relu"' in text and '"none"' in text

    def test_values_round_trip(self, tmp_path):
        q = quantized()
        text = export_c_header(q, tmp_path / "m.h").read_text()
        arrays, _ = q.payload()
        for name in ("w0", "ws0", "b0", "w1", "ws1", "b1"):
            _, values = _array(text, name)
            np.testing.assert_array_equal(
                values.astype(np.float32), arrays[name].ravel().astype(np.float32)
            )

    @pytest.mark.parametrize("mode", [None, "float16"])
    def test_float_plans_emit_float_weights(self, tmp_path, mode):
        plan = InferencePlan.from_model(_model(), quantize=mode)
        text = export_c_header(plan, tmp_path / "m.h").read_text()
        assert "int8_t" not in text and "repro_ws" not in text
        ctype, values = _array(text, "w0")
        assert ctype == "float"
        # float16 -> float32 is exact, so the header holds what executes.
        np.testing.assert_array_equal(
            values.astype(np.float32), plan.steps[0].weight.ravel()
        )

    def test_bias_emitted_only_where_a_step_has_one(self, tmp_path):
        plan = InferencePlan.from_model(_model(bias=False))
        text = export_c_header(plan, tmp_path / "m.h").read_text()
        assert "repro_b0" not in text
        assert "static const float repro_b1[1]" in text

    def test_scaler_statistics_emitted(self, tmp_path):
        assert "repro_input_mean" not in export_c_header(
            quantized(), tmp_path / "bare.h"
        ).read_text()
        scaler = StandardScaler().fit(np.random.default_rng(0).normal(3.0, 2.0, (30, 4)))
        plan = InferencePlan.from_model(_model(), scaler=scaler, quantize="int8")
        text = export_c_header(plan, tmp_path / "m.h").read_text()
        for name in ("input_mean", "input_scale"):
            _, values = _array(text, name)
            np.testing.assert_array_equal(
                values.astype(np.float32), getattr(plan, name)
            )

    def test_custom_guard(self, tmp_path):
        text = export_c_header(quantized(), tmp_path / "m.h", guard="MY_NET_H").read_text()
        assert "#ifndef MY_NET_H" in text

    def test_invalid_guard_rejected(self, tmp_path):
        with pytest.raises(DeploymentError):
            export_c_header(quantized(), tmp_path / "m.h", guard="bad guard!")

    def test_braces_balanced(self, tmp_path):
        text = export_c_header(quantized(), tmp_path / "m.h").read_text()
        assert text.count("{") == text.count("}")


class TestPlanExport:
    def make_plan(self, seed=0):
        from repro.baselines.scaler import StandardScaler
        from repro.fastpath import InferencePlan

        rng = np.random.default_rng(seed)
        model = Sequential(Linear(6, 12, rng=rng), ReLU(), Linear(12, 1, rng=rng))
        scaler = StandardScaler().fit(rng.normal(5.0, 2.0, size=(40, 6)))
        return InferencePlan.from_model(model, scaler=scaler)

    def test_round_trip_is_bit_identical(self, tmp_path):
        from repro.deploy.export import export_plan, load_plan

        plan = self.make_plan()
        path = export_plan(plan, tmp_path / "plan.npz")
        loaded = load_plan(path)
        x = np.random.default_rng(1).normal(5.0, 2.0, size=(9, 6))
        np.testing.assert_array_equal(
            plan.predict_proba(x), loaded.predict_proba(x)
        )
        assert loaded.n_parameters() == plan.n_parameters()

    def test_capacity_is_a_load_time_choice(self, tmp_path):
        from repro.deploy.export import export_plan, load_plan

        path = export_plan(self.make_plan(), tmp_path / "plan.npz")
        assert load_plan(path, capacity=256).capacity == 256

    def test_rejects_wrong_artifact_kind(self, tmp_path):
        from repro.deploy.export import load_plan
        from repro.exceptions import SerializationError

        bad = tmp_path / "other.npz"
        np.savez(bad, w0=np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(SerializationError):
            load_plan(bad)

    def test_rejects_missing_file(self, tmp_path):
        from repro.deploy.export import load_plan
        from repro.exceptions import SerializationError

        with pytest.raises(SerializationError):
            load_plan(tmp_path / "nope.npz")
