"""Finite-difference verification suite and its negative control."""

import numpy as np
import pytest

from tagsum.encoder import GraphEncoderConfig
from tagsum.errors import ValidationError
from tagsum.gradcheck import (
    FUSED_OPS,
    check_gradients,
    compare_gradients,
    relative_error,
    run_grad_check,
)


class TestEncoderGradients:
    def test_minimal_config_passes(self):
        cfg = GraphEncoderConfig(layers=1, hidden=4, heads=1,
                                 positional_dim=2, text_dim=3)
        results = check_gradients("encoder", cfg, sizes=(3,), seed=0)
        assert all(ok for _, ok in results.values()), results

    def test_two_layer_with_attention_passes(self):
        cfg = GraphEncoderConfig(layers=2, hidden=8, heads=2,
                                 positional_dim=3, text_dim=5)
        results = check_gradients("encoder", cfg, sizes=(3,), seed=1)
        assert all(ok for _, ok in results.values()), results

    def test_input_gradient_included(self):
        cfg = GraphEncoderConfig(layers=1, hidden=4, heads=1,
                                 positional_dim=2, text_dim=3)
        results = check_gradients("encoder", cfg, sizes=(3,), seed=2)
        assert "input.features" in results
        err, ok = results["input.features"]
        assert ok and err < 1e-4


class TestFusedOpGradients:
    @pytest.mark.parametrize("op", FUSED_OPS)
    def test_padded_batch_with_a_single_node(self, op):
        cfg = GraphEncoderConfig(layers=1, hidden=8, heads=2,
                                 positional_dim=3, text_dim=5)
        results = check_gradients(op, cfg, sizes=(3, 1, 2), seed=4)
        assert all(ok for _, ok in results.values()), results
        assert any(name.startswith(op + ".") for name in results)   # an input gradient


class TestNegativeControl:
    def test_corrupted_gradient_detected(self):
        analytic = {"w": np.array([1.0, 2.0, 3.0])}
        numeric = {"w": np.array([1.0, 2.0, 3.0])}
        ok_before = compare_gradients(analytic, numeric)["w"][1]
        assert ok_before
        analytic["w"] = analytic["w"] + np.array([0.0, 1e-2, 0.0])
        err, ok_after = compare_gradients(analytic, numeric)["w"]
        assert not ok_after
        assert err > 1e-3

    def test_relative_error_symmetric_floor(self):
        a = np.array([1e-12])
        b = np.array([0.0])
        assert relative_error(a, b) < 1e-4


class TestArguments:
    @pytest.mark.parametrize("setting", [{"step": np.inf}, {"tolerance": np.inf}])
    def test_infinite_step_or_tolerance_rejected(self, setting):
        with pytest.raises(ValidationError):
            run_grad_check(trials=0, **setting)


class TestFullSuite:
    def test_report_passes_and_prints(self):
        report = run_grad_check(trials=2, seed=0)
        assert report.passed
        text = report.to_text()
        assert "PASS" in text
        assert "input.features" in text
        assert "supervised_contrastive_loss.z" in text

    def test_entries_name_the_same_contexts_and_tensors(self):
        # The (context, tensor) list of the two checkers this harness replaced.
        layer = [f"{name}.{kind}" for name in ("attn_k", "attn_out", "attn_q", "attn_v",
                                                "ffn1", "ffn2", "local_neigh", "local_self")
                 for kind in ("bias", "weight")]
        layer += ["norm1.bias", "norm1.gain", "norm2.bias", "norm2.gain"]
        ffn = [f"layer0.{name}" for name in layer if name.startswith(("ffn", "norm2"))]
        mixing = [f"layer0.{name}" for name in layer if not name.startswith(("ffn", "norm2"))]

        def encoder(context, layers):
            names = ["input.bias", "input.features", "input.weight"]
            names += [f"layer{i}.{name}" for i in range(layers) for name in layer]
            return [(context, name) for name in names + ["proj.bias", "proj.weight"]]

        def fused(op, names):
            return [(f"fused {op}", name) for name in names]

        want = (encoder("encoder(L=1,D=4,trial=0)", 1) + encoder("encoder(L=2,D=8,trial=1)", 2)
                + encoder("encoder(L=2,D=8,padded batch)", 2)
                + fused("input_projection", ["input.bias", "input.weight",
                                             "input_projection.x"])
                + fused("mixing", mixing + ["mixing.h"]) + fused("ffn", ["ffn.h"] + ffn)
                + fused("readout", ["proj.bias", "proj.weight", "readout.h"])
                + fused("contrastive_loss", ["contrastive_loss.h", "contrastive_loss.u"])
                + fused("supervised_contrastive_loss", ["supervised_contrastive_loss.z"]))
        report = run_grad_check(trials=2, seed=0)
        assert [(e.context, e.tensor) for e in report.entries] == want

    def test_worst_error_reported(self):
        report = run_grad_check(trials=1, seed=3)
        assert 0.0 < report.worst < 1e-4
