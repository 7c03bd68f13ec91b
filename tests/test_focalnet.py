"""Backbone tests: focal modulation algebra against forced-parameter and
per-location scalar oracles, shape bookkeeping, caching, determinism."""

import gc
import json
import time
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from focalaudio import tensor as T
from focalaudio.audio import FrontendConfig
from focalaudio.focalnet import (
    Dense,
    FocalBlock,
    FocalLayer,
    FocalNet,
    FocalNetConfig,
    PatchEmbed,
)
from focalaudio.tensor import NumericalError, Tensor, backward, no_grad
from focalaudio.training import TrainConfig

from gradcheck import as_float64, gradient_check

RNG = np.random.default_rng(5)


def make_layer(dim=4, dtype=np.float64, seed=0):
    layer = FocalLayer(dim, np.random.default_rng(seed))
    return as_float64(layer) if dtype == np.float64 else layer


def set_identity(dense: Dense):
    n = dense.weight.shape[0]
    dense.weight.data = np.eye(n, dtype=dense.weight.dtype)
    dense.bias.data = np.zeros(n, dtype=dense.bias.dtype)


def scalar_reference_modulator(layer: FocalLayer, x: np.ndarray) -> np.ndarray:
    """Loop-over-locations oracle for gated aggregation + projection."""
    with no_grad():
        contexts = [c.data for c in layer.hierarchical_contextualize(Tensor(x))]
    gw, gb = layer.gate_proj.weight.data, layer.gate_proj.bias.data
    hw, hb = layer.out_proj.weight.data, layer.out_proj.bias.data
    b, c, h, w = x.shape
    out = np.zeros_like(x)
    for n in range(b):
        for i in range(h):
            for j in range(w):
                gates = gw @ x[n, :, i, j] + gb
                blend = np.zeros(c, dtype=x.dtype)
                for lvl, ctx in enumerate(contexts):
                    blend += gates[lvl] * ctx[n, :, i, j]
                out[n, :, i, j] = hw @ blend + hb
    return out


class TestHierarchicalContextualize:
    def test_level_count(self):
        layer = make_layer()
        ctx = layer.hierarchical_contextualize(Tensor(RNG.standard_normal((1, 4, 6, 6))))
        assert len(ctx) == 3

    def test_all_maps_full_shape(self):
        layer = make_layer()
        ctx = layer.hierarchical_contextualize(Tensor(RNG.standard_normal((2, 4, 5, 7))))
        assert all(c.shape == (2, 4, 5, 7) for c in ctx)

    def test_pooled_map_is_spatially_constant(self):
        layer = make_layer()
        ctx = layer.hierarchical_contextualize(Tensor(RNG.standard_normal((2, 4, 5, 7))))
        pooled = ctx[-1].data
        assert np.ptp(pooled, axis=(2, 3)).max() == 0.0

    def test_zero_input_bias_free_gives_zero_maps(self):
        layer = make_layer()
        layer.context_proj.bias.data[:] = 0.0  # zero already; make the premise explicit
        ctx = layer.hierarchical_contextualize(Tensor(np.zeros((1, 4, 6, 6))))
        for c in ctx:
            np.testing.assert_array_equal(c.data, 0.0)


class TestGatedAggregate:
    def test_zero_gates_zero_modulator(self):
        layer = make_layer()
        layer.gate_proj.weight.data[:] = 0.0
        layer.gate_proj.bias.data[:] = 0.0
        x = Tensor(RNG.standard_normal((1, 4, 6, 6)))
        m = layer.gated_aggregate(x, layer.hierarchical_contextualize(x))
        np.testing.assert_array_equal(m.data, 0.0)

    def test_one_hot_gate_selects_context(self):
        layer = make_layer()
        layer.gate_proj.weight.data[:] = 0.0
        layer.gate_proj.bias.data[:] = [1.0, 0.0, 0.0]  # select level 1
        set_identity(layer.out_proj)
        x = Tensor(RNG.standard_normal((1, 4, 6, 6)))
        ctx = layer.hierarchical_contextualize(x)
        m = layer.gated_aggregate(x, ctx)
        np.testing.assert_allclose(m.data, ctx[0].data, atol=1e-12)

    def test_matches_scalar_reference(self):
        for seed in range(3):
            layer = make_layer(dim=5, seed=seed)
            # non-degenerate gates and projection
            rng = np.random.default_rng(100 + seed)
            layer.gate_proj.weight.data = rng.standard_normal(layer.gate_proj.weight.shape)
            layer.gate_proj.bias.data = rng.standard_normal(layer.gate_proj.bias.shape)
            layer.out_proj.weight.data = rng.standard_normal(layer.out_proj.weight.shape)
            x = rng.standard_normal((2, 5, 6, 4))
            m = layer.gated_aggregate(Tensor(x), layer.hierarchical_contextualize(Tensor(x)))
            ref = scalar_reference_modulator(layer, x)
            assert np.abs(m.data - ref).max() < 1e-5


class TestFocalModulation:
    def test_neutral_modulator_identity(self):
        layer = make_layer()
        set_identity(layer.query)
        layer.out_proj.weight.data[:] = 0.0
        layer.out_proj.bias.data[:] = 1.0  # modulator forced to all ones
        x = Tensor(RNG.standard_normal((1, 4, 6, 6)))
        y, m = layer(x)
        np.testing.assert_array_equal(m.data, 1.0)
        np.testing.assert_array_equal(y.data, x.data)

    def test_output_shape_matches_input(self):
        layer = make_layer()
        for shape in ((1, 4, 3, 9), (2, 4, 8, 8)):
            y, _ = layer(Tensor(RNG.standard_normal(shape)))
            assert y.shape == shape

    def test_gradient_32bit(self):
        layer = make_layer(dim=3, dtype=np.float32)
        x = Tensor(RNG.standard_normal((1, 3, 5, 5)).astype(np.float32), requires_grad=True)
        params = dict(layer.named_parameters())
        params["x"] = x

        def f():
            y, _ = layer(x)
            return (y * y).sum()

        errs = gradient_check(f, params, step=1e-3)
        assert max(errs.values()) < 1e-3

    def test_gradient_64bit(self):
        layer = make_layer(dim=3)
        x = Tensor(RNG.standard_normal((1, 3, 4, 4)), requires_grad=True)
        params = dict(layer.named_parameters())
        params["x"] = x

        def f():
            y, _ = layer(x)
            return (y * y).sum()

        errs = gradient_check(f, params, step=1e-5)
        assert max(errs.values()) < 1e-5


class TestFocalBlock:
    def make_block(self, dim=4):
        return as_float64(FocalBlock(dim, np.random.default_rng(0)))

    def test_zeroed_residual_branches_identity(self):
        blk = self.make_block()
        blk.focal.out_proj.weight.data[:] = 0.0
        blk.focal.out_proj.bias.data[:] = 0.0  # modulator == 0, so branch is 0
        blk.mlp.fc2.weight.data[:] = 0.0
        blk.mlp.fc2.bias.data[:] = 0.0
        x = Tensor(RNG.standard_normal((1, 4, 5, 5)))
        y, _ = blk(x)
        np.testing.assert_array_equal(y.data, x.data)

    def test_shape_preserved(self):
        blk = self.make_block()
        for shape in ((1, 4, 7, 3), (2, 4, 6, 6)):
            blk2 = self.make_block()
            y, _ = blk2(Tensor(RNG.standard_normal(shape)))
            assert y.shape == shape

    def test_stacking_is_sequential_composition(self):
        b1, b2 = self.make_block(), self.make_block()
        x = Tensor(RNG.standard_normal((1, 4, 5, 5)))
        y1, _ = b1(x)
        y2, _ = b2(y1)
        z = x
        for b in (b1, b2):
            z, _ = b(z)
        np.testing.assert_array_equal(y2.data, z.data)


class TestPatchEmbed:
    def test_stem_shape_224(self):
        pe = PatchEmbed(3, 128, 4, np.random.default_rng(0))
        with no_grad():
            y = pe(Tensor(RNG.standard_normal((1, 3, 224, 224)).astype(np.float32)))
        assert y.shape == (1, 128, 56, 56)

    def test_interstage_halving(self):
        pe = as_float64(PatchEmbed(8, 16, 2, np.random.default_rng(0)))
        y = pe(Tensor(RNG.standard_normal((2, 8, 10, 14))))
        assert y.shape == (2, 16, 5, 7)

    def test_constant_input_constant_output(self):
        pe = as_float64(PatchEmbed(2, 5, 4, np.random.default_rng(0)))
        y = pe(Tensor(np.full((1, 2, 8, 8), 0.7)))
        assert np.ptp(y.data, axis=(2, 3)).max() < 1e-12


class TestFocalNetForward:
    def test_tiny_forward_backward_under_one_second(self):
        net = FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)
        x = Tensor(RNG.standard_normal((3, 32, 32)).astype(np.float32), requires_grad=True)
        t0 = time.perf_counter()
        logits, _ = net.forward(x)
        loss = (logits * logits).sum()
        backward(loss)
        elapsed = time.perf_counter() - t0
        assert logits.shape == (1, 4)  # a single input is a batch of one
        assert x.grad.shape == (3, 32, 32)
        assert elapsed < 1.0

    def test_backward_leaves_no_reference_cycles(self):
        net = FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)

        def train_step():
            x = Tensor(RNG.standard_normal((2, 3, 32, 32)).astype(np.float32))
            logits, _ = net.forward(x)
            loss = (logits * logits).sum()
            backward(loss)
            refs, stack, seen = [], [loss], set()
            while stack:  # every array the tape recorded
                t = stack.pop()
                if id(t) not in seen and t._backward is not None:
                    seen.add(id(t))
                    refs.append(weakref.ref(t.data))
                    stack.extend(t._parents)
            return refs

        gc.disable()
        try:
            refs = train_step()
            alive = sum(r() is not None for r in refs)
        finally:
            gc.enable()
        assert len(refs) > 50
        assert alive == 0, f"{alive} of {len(refs)} activations outlive the step"

    def test_modulator_cache_shape(self):
        net = FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)
        with no_grad():
            _, modulator = net.forward(Tensor(RNG.standard_normal((3, 32, 32)).astype(np.float32)))
        # stride 4 then 2: 32 -> 8 -> 4, final dim 16
        assert modulator.shape == (1, 16, 4, 4)

    # the total stride depends on the stage count alone: the default's four
    # stages and depths at narrow channels stand in for its 80M weights
    @pytest.mark.parametrize("config, hw, side, stride", [
        (FocalNetConfig.tiny(), (33, 33), "height 33", 8),
        (FocalNetConfig.tiny(), (32, 36), "width 36", 8),
        (FocalNetConfig(FocalNetConfig.default().stage_depths, (4, 4, 4, 4), 50), (96, 100),
         "width 100", 32),
    ], ids=["tiny-33x33", "tiny-32x36", "default-96x100"])
    def test_refuses_a_side_the_total_stride_does_not_divide(self, config, hw, side, stride):
        net = FocalNet(config, seed=0)
        with pytest.raises(ValueError,
                           match=f"input {side} is not a multiple of the total stride {stride}$"):
            net.forward(np.zeros((1, 3, *hw), dtype=np.float32))

    @pytest.mark.parametrize("hw", [(8, 8), (16, 40), (40, 24), (32, 56)])
    def test_modulator_cells_cover_the_unpadded_input(self, hw):
        # the total stride 8 divides both sides, so the cells tile the input
        # exactly: H / 8 x W / 8 of them
        net = FocalNet(FocalNetConfig.tiny(), seed=0)
        with no_grad():
            _, modulator = net.forward(RNG.standard_normal((1, 3, *hw)).astype(np.float32))
        assert modulator.shape[-2:] == (hw[0] // 8, hw[1] // 8)

    def test_feature_maps_are_channel_first_in_memory(self):
        net = FocalNet(FocalNetConfig.desk(), seed=0)
        x = np.random.default_rng(50).standard_normal((2, 3, 96, 96)).astype(np.float32)
        with no_grad():
            _, modulator = net.forward(x)
            y, _ = net.stages[0].blocks[0](net.stem(Tensor(x)))
        assert modulator.shape == (2, 32, 12, 12) and modulator.flags.c_contiguous
        assert y.shape == (2, 16, 24, 24) and y.data.flags.c_contiguous

    def test_forward_deterministic_bitwise(self):
        net = FocalNet(FocalNetConfig.tiny(), seed=3)
        x = Tensor(RNG.standard_normal((3, 32, 32)).astype(np.float32))
        with no_grad():
            a, _ = net.forward(x)
            b, _ = net.forward(x)
        np.testing.assert_array_equal(a.data, b.data)

    def test_same_seed_same_params(self):
        n1 = FocalNet(FocalNetConfig.tiny(), seed=7)
        n2 = FocalNet(FocalNetConfig.tiny(), seed=7)
        for (k1, p1), (k2, p2) in zip(n1.named_parameters(), n2.named_parameters()):
            assert k1 == k2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_nan_detection_names_layer(self):
        net = FocalNet(FocalNetConfig.tiny(), seed=0)
        net.stages[0].blocks[0].mlp.fc2.weight.data[0, 0] = np.nan
        with pytest.raises(NumericalError, match="stage 0 block 0"):
            with no_grad():
                net.forward(Tensor(RNG.standard_normal((3, 32, 32)).astype(np.float32)))

    def test_batched_forward_matches_single(self):
        net = FocalNet(FocalNetConfig.tiny(), seed=1)
        xs = RNG.standard_normal((2, 3, 32, 32)).astype(np.float32)
        with no_grad():
            lb, _ = net.forward(Tensor(xs))
            l0, _ = net.forward(Tensor(xs[:1]))
            l1, _ = net.forward(Tensor(xs[1:]))
            single, _ = net.forward(Tensor(xs[0]))
        np.testing.assert_allclose(lb.data[0], l0.data[0], atol=1e-5)
        np.testing.assert_allclose(lb.data[1], l1.data[0], atol=1e-5)
        # a [3, H, W] input is its batch of one
        np.testing.assert_array_equal(single.data, l0.data)

    def test_plain_array_input_is_wrapped_with_its_dtype(self):
        xs = RNG.standard_normal((2, 3, 32, 32))
        for dtype in (np.float32, np.float64):
            net = FocalNet(FocalNetConfig.tiny(), seed=1)
            if dtype == np.float64:
                as_float64(net)
            x = xs.astype(dtype)
            with no_grad():
                from_array, _ = net.forward(x)
                from_tensor, _ = net.forward(Tensor(x))
            assert from_array.dtype == dtype
            np.testing.assert_array_equal(from_array.data, from_tensor.data)

    def test_rejects_wrong_channel_count(self):
        net = FocalNet(FocalNetConfig.tiny(), seed=0)
        with pytest.raises(ValueError, match="expected input"):
            net.forward(Tensor(np.zeros((1, 2, 32, 32), dtype=np.float32)))

    def test_probabilities(self):
        net = FocalNet(FocalNetConfig.tiny(), seed=1)
        p = net.predict_proba(Tensor(RNG.standard_normal((3, 32, 32)).astype(np.float32)))
        assert p.shape == (1, 4)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)


@pytest.mark.slow
class TestDefaultConfig:
    def test_default_forward_and_stage_resolutions(self, monkeypatch):
        cfg = FocalNetConfig.default(num_classes=50)
        assert cfg.stage_dims == (128, 256, 512, 1024)
        net = FocalNet(cfg, seed=0)
        assert net.num_parameters() == 80_178_888
        x = Tensor(RNG.standard_normal((1, 3, 224, 224)).astype(np.float32))
        # each stage's resolution is the output of the patch embedding before
        # it: the stem, then each downsample, recorded during the one forward
        shapes = []
        embed = PatchEmbed.forward

        def recorded(self, h):
            out = embed(self, h)
            shapes.append(out.shape[-2:])
            return out

        monkeypatch.setattr(PatchEmbed, "forward", recorded)
        with no_grad():
            logits, modulator = net.forward(x)
        assert shapes == [(56, 56), (28, 28), (14, 14), (7, 7)]
        assert logits.shape == (1, 50)
        assert modulator.shape == (1, 1024, 7, 7)


class TestConfig:
    # a change to a preset or to the fixed architecture (KERNEL_SIZES, the
    # layer's projections) moves these counts, and must do so on purpose
    @pytest.mark.parametrize("preset, count", [("tiny", 5_718), ("desk", 35_932)])
    def test_preset_parameter_count(self, preset, count):
        assert FocalNet(getattr(FocalNetConfig, preset)(num_classes=4)).num_parameters() == count

    def test_round_trip_dict(self):
        # through JSON, as a checkpoint header stores them
        for cfg in (FocalNetConfig.desk(num_classes=4), TrainConfig.desk(), FrontendConfig()):
            assert type(cfg)(**json.loads(json.dumps(asdict(cfg)))) == cfg

    # these values read from a checkpoint header are rows of test_training's
    # `test_unreadable_file_rejected`
    @pytest.mark.parametrize("fields, check", [
        # with no stage, FocalNet would have no last stage to pool
        (dict(stage_depths=(), stage_dims=()), "stage_depths must be positive integers"),
        # a fraction is refused, not truncated to a whole number
        (dict(stage_depths=(1.5, 1)), "stage_depths must be positive integers"),
        (dict(stage_dims=(8.5, 16)), "stage_dims must be positive integers"),
        (dict(num_classes=2.5), "num_classes must be an integer >= 2"),
        (dict(stage_dims=(8,)), "stage_dims and stage_depths must have equal length"),
    ], ids=["no_stages", "fractional_stage_depth", "fractional_stage_dim",
            "fractional_num_classes", "unequal_stage_lists"])
    def test_impossible_value_names_the_field(self, fields, check):
        with pytest.raises(ValueError, match=check):
            FocalNetConfig(**{"stage_depths": (1, 1), "stage_dims": (8, 16), "num_classes": 4,
                              **fields})
