"""Training-loop tests: the step log, the refusal of empty sets, a resume
through a checkpoint, the gradient-sharing contract of the tape (first
gradients are stored without a copy, so `.grad` arrays are read-only and may
be views of one another, but never of parameter data), and the checkpoint
container, plus the optimizer against Adam written out by hand, the
learning-rate schedule and validation accuracy."""

import hashlib
import json
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from focalaudio import training
from focalaudio.audio import FrontendConfig
from focalaudio.focalnet import FocalNet, FocalNetConfig
from focalaudio.tensor import NumericalError, Tensor, backward, no_grad

from gradcheck import as_float64, gradient_check

# fit log of the tiny model below, recorded before the kernel gradient was
# reduced per tap; float32 sums in another order move the loss by ~1e-7
# relative and the gradient norm by ~1e-8
PINNED_LOG = [
    (0, 1e-05, 23.00688934326172, 1608.2402154745193),
    (1, 2.4950000000000003e-05, 5.93522834777832, 3493.9536166615417),
    (2, 3.99e-05, 10.203310012817383, 1217.627649340409),
    (3, 5.485e-05, 23.946918487548828, 3297.730227178594),
]


def tiny_fit_data():
    rng = np.random.default_rng(0)

    def clipset(n, first_id):
        return training.ClipSet(rng.standard_normal((n, 3, 32, 32)).astype(np.float32),
                                np.arange(n) % 4, [f"c{first_id + i}" for i in range(n)])

    return clipset(6, 0), clipset(4, 100)


class TestFitLog:
    def test_step_time_and_throughput_logged(self, tmp_path):
        train, val = tiny_fit_data()
        net = FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)
        config = training.TrainConfig.desk(epochs=2, batch_size=4, seed=0)
        res = training.fit(net, train, val, config, frontend=FrontendConfig(input_size=32),
                           run_dir=tmp_path)
        on_disk = [json.loads(s) for s in (tmp_path / "train_log.jsonl").read_text().splitlines()]
        assert on_disk == res.log_lines
        batches = [4, 2, 4, 2]
        for line, clips in zip(res.log_lines, batches, strict=True):
            assert set(line) == {"step", "lr", "loss", "grad_norm", "step_s", "clips_per_s"}
            assert math.isfinite(line["step_s"]) and line["step_s"] > 0
            assert math.isfinite(line["clips_per_s"]) and line["clips_per_s"] > 0
            assert math.isclose(line["clips_per_s"], clips / line["step_s"], rel_tol=1e-12)

    def test_deterministic_keys_unchanged(self):
        train, val = tiny_fit_data()
        net = FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)
        config = training.TrainConfig.desk(epochs=2, batch_size=4, seed=0)
        lines = training.fit(net, train, val, config, frontend=FrontendConfig(input_size=32)).log_lines
        assert len(lines) == len(PINNED_LOG)
        for line, (step, lr, loss, gnorm) in zip(lines, PINNED_LOG):
            assert line["step"] == step
            assert line["lr"] == lr
            assert math.isclose(line["loss"], loss, rel_tol=1e-6)
            assert math.isclose(line["grad_norm"], gnorm, rel_tol=1e-6)

    @pytest.mark.parametrize("empty", ["train", "val"])
    def test_empty_set_rejected_before_the_first_step(self, empty):
        sets = dict(zip(("train", "val"), tiny_fit_data()))
        sets[empty] = training.ClipSet(np.zeros((0, 3, 32, 32), np.float32), np.zeros(0, np.int64), [])
        net = FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)
        initial = {k: p.data.copy() for k, p in net.named_parameters()}
        config = training.TrainConfig.desk(epochs=2, batch_size=4, seed=0)
        with pytest.raises(ValueError, match=f"the {empty} set is empty"):
            training.fit(net, **sets, config=config, frontend=FrontendConfig(input_size=32))
        for name, p in net.named_parameters():
            np.testing.assert_array_equal(p.data, initial[name], err_msg=name)


class TestResume:
    def test_resume_through_a_checkpoint_matches_the_one_shot_run(self, tmp_path):
        train, val = tiny_fit_data()
        frontend = FrontendConfig(input_size=32)
        config = training.TrainConfig.desk(epochs=2, batch_size=4, seed=0)

        def fresh():
            return FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)

        def steady(lines):
            return [{k: v for k, v in line.items() if k not in ("step_s", "clips_per_s")}
                    for line in lines]

        one_shot = training.fit(fresh(), train, val, config, frontend)
        first = training.fit(fresh(), train, val, replace(config, epochs=1), frontend)
        training.save_checkpoint(first.last, tmp_path / "epoch0.ckpt")
        ckpt = training.load_checkpoint(tmp_path / "epoch0.ckpt")
        resumed = training.fit(ckpt.build_model(), train, val, config, frontend,
                               start_epoch=1, optimizer_state=ckpt.optimizer)
        assert len(first.log_lines) == len(resumed.log_lines) == 2
        assert steady(first.log_lines + resumed.log_lines) == steady(one_shot.log_lines)
        assert resumed.last.model_id() == one_shot.last.model_id()

    # past the run `fit` would return an empty history with no step taken,
    # and below 0 numpy would raise an error that names nothing
    @pytest.mark.parametrize("start_epoch", [5, 2, -1])
    def test_start_epoch_outside_the_run_rejected_before_the_first_step(self, start_epoch):
        train, val = tiny_fit_data()
        net = FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)
        initial = {k: p.data.copy() for k, p in net.named_parameters()}
        state = training.AdamState()
        config = training.TrainConfig.desk(epochs=2, batch_size=4, seed=0)
        with pytest.raises(ValueError, match=re.escape(
                f"start_epoch must be an integer in [0, epochs) = [0, 2), got {start_epoch}")):
            training.fit(net, train, val, config, FrontendConfig(input_size=32),
                         start_epoch=start_epoch, optimizer_state=state)
        assert state == training.AdamState()
        for name, p in net.named_parameters():
            np.testing.assert_array_equal(p.data, initial[name], err_msg=name)


class TestAmSoftmaxLoss:
    @staticmethod
    def features_and_weights():
        """Five float64 feature rows and four class weights of dimension 6."""
        rng = np.random.default_rng(2)
        return (Tensor(rng.standard_normal((5, 6)), requires_grad=True),
                Tensor(rng.standard_normal((4, 6)), requires_grad=True))

    def test_value_matches_margin_softmax_by_hand(self):
        feats, weights = self.features_and_weights()
        labels = np.array([0, 3, 1, 1, 2])
        loss = training.am_softmax_loss(feats, weights, labels, 0.2, 30.0)
        f = feats.data / np.linalg.norm(feats.data, axis=1, keepdims=True)
        w = weights.data / np.linalg.norm(weights.data, axis=1, keepdims=True)
        z = 30.0 * (f @ w.T - 0.2 * np.eye(4)[labels])
        want = np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(5), labels])
        np.testing.assert_allclose(loss.data, want, rtol=1e-12)

    def test_gradients_vs_finite_differences_64bit(self):
        feats, weights = self.features_and_weights()
        labels = [0, 3, 1, 1, 2]
        errs = gradient_check(lambda: training.am_softmax_loss(feats, weights, labels, 0.2, 30.0),
                              {"features": feats, "class_weights": weights})
        assert max(errs.values()) < 1e-6, errs

    @pytest.mark.parametrize("labels, clip_ids, check", [
        ([0, 1, -1, 2, 3], ["a", "b", "c", "d", "e"], "label -1 of clip c is outside the 4 classes"),
        ([0, 1, 2, 3, 49], ["a", "b", "c", "d", "e"], "label 49 of clip e is outside the 4 classes"),
        ([0, 1, 4, 2, 3], None, "label 4 of batch row 2 is outside the 4 classes"),
        ([0, 1, 2], ["a", "b", "c", "d", "e"], "no label for clip d: 3 labels for 5 feature rows"),
        ([0, 1, 2], None, "no label for batch row 3"),
        ([0, 1, 2, 3, 0, 1], None, "labels of shape \\(6,\\) for 5 feature rows"),
        ([0, 1, 2.7, 3, 0], ["a", "b", "c", "d", "e"], "label 2.7 of clip c is not a whole number"),
        (np.array([0.9, 1, 2, 3, 0]), None, "label 0.9 of batch row 0 is not a whole number"),
        ([0, 1, 2, np.nan, 0], None, "label nan of batch row 3 is not a whole number"),
    ], ids=["negative", "esc50_label_on_4_classes", "k_without_ids", "short_list", "short_list_without_ids",
            "long_list", "fractional", "fractional_without_ids", "nan"])
    def test_bad_labels_name_the_clip(self, labels, clip_ids, check):
        feats, weights = self.features_and_weights()
        with pytest.raises(ValueError, match=check):
            training.am_softmax_loss(feats, weights, labels, 0.2, 30.0, clip_ids=clip_ids)

    def test_zero_feature_row_names_the_clip(self):
        feats, weights = self.features_and_weights()
        feats.data[3] = 0.0
        with pytest.raises(NumericalError, match="zero-norm feature row for clip d"):
            training.am_softmax_loss(feats, weights, [0, 1, 2, 3, 0], 0.2, 30.0,
                                     clip_ids=["a", "b", "c", "d", "e"])

    def test_loss_is_three_tape_nodes_over_the_cosine(self):
        feats, weights = self.features_and_weights()
        loss = training.am_softmax_loss(feats, weights, [0, 1, 2, 3, 0], 0.2, 30.0)
        assert loss._op == "cross_entropy"
        assert [p._op for p in loss._parents] == ["mul"]
        assert [p._op for p in loss._parents[0]._parents] == ["add", "leaf"]
        assert loss._parents[0]._parents[0]._parents[0]._op == "linear"


class TestTrainingDiverged:
    def test_carries_the_state_after_the_last_finite_step(self, monkeypatch):
        train, val = tiny_fit_data()
        net = FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)
        initial = {k: p.data.copy() for k, p in net.named_parameters()}
        loss_fn = training.am_softmax_loss
        calls = []

        def nan_on_second_step(*args, **kwargs):
            calls.append(None)
            loss = loss_fn(*args, **kwargs)
            return loss * np.float32(np.nan) if len(calls) == 2 else loss

        monkeypatch.setattr(training, "am_softmax_loss", nan_on_second_step)
        config = training.TrainConfig.desk(epochs=2, batch_size=4, seed=0)
        with pytest.raises(training.TrainingDiverged, match="epoch 0 step 1") as err:
            training.fit(net, train, val, config, frontend=FrontendConfig(input_size=32))
        ckpt = err.value.checkpoint
        assert len(calls) == 2
        assert ckpt.optimizer.t == 1 and ckpt.history == []
        assert ckpt.optimizer.m.keys() == ckpt.params.keys() == initial.keys()
        # the first step was applied and the diverged second one was not
        assert any(not np.array_equal(ckpt.params[k], v) for k, v in initial.items())
        for name, p in net.named_parameters():
            np.testing.assert_array_equal(ckpt.params[name], p.data, err_msg=name)

    def test_overflowing_activations_carry_the_state_after_the_last_finite_step(self):
        train, val = tiny_fit_data()
        net = FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)
        config = training.TrainConfig.desk(epochs=3, batch_size=4, seed=0, lr_min=5e5, lr_max=1e6)
        # the overflow is reported by the block's finiteness check, not by
        # numpy's warning, whatever the warning filter (pytest's turns it into an error)
        with pytest.raises(training.TrainingDiverged,
                           match="epoch 0 step 1: .*stage 0 block 0") as err:
            training.fit(net, train, val, config, FrontendConfig(input_size=32),
                         optimizer_state=training.AdamState())
        ckpt = err.value.checkpoint
        assert ckpt.optimizer.t == 1
        for name, p in net.named_parameters():
            np.testing.assert_array_equal(ckpt.params[name], p.data, err_msg=name)

    def test_bad_label_is_the_loss_error_not_divergence(self):
        train, val = tiny_fit_data()
        train.labels[2] = 7
        net = FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)
        config = training.TrainConfig.desk(epochs=1, batch_size=6, seed=0)
        with pytest.raises(ValueError, match="label 7 of clip c2 is outside"):
            training.fit(net, train, val, config, FrontendConfig(input_size=32))


class TestGradientSharing:
    @staticmethod
    def train_step(net, x, labels):
        net.zero_grad()
        feats, _ = net.forward_features(Tensor(x))
        loss = training.am_softmax_loss(feats, net.head.weight, labels, 0.2, 30.0)
        backward(loss)
        return {name: p.grad for name, p in net.named_parameters()}

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.net = FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)
        self.x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        self.labels = np.array([0, 1, 2, 3])

    def test_no_gradient_shares_memory_with_another_or_with_weights(self):
        grads = self.train_step(self.net, self.x, self.labels)
        params = dict(self.net.named_parameters())
        assert all(g is not None for g in grads.values())
        names = sorted(grads)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert not np.shares_memory(grads[a], grads[b]), (a, b)
            for b in names:
                assert not np.shares_memory(grads[a], params[b].data), (a, b)

    def test_repeated_step_gives_bitwise_equal_gradients(self):
        first = self.train_step(self.net, self.x, self.labels)
        kept = {k: g.copy() for k, g in first.items()}
        second = self.train_step(self.net, self.x, self.labels)
        for name, g in second.items():
            np.testing.assert_array_equal(g, kept[name], err_msg=name)
            # the second sweep wrote nothing into the first step's gradients
            np.testing.assert_array_equal(first[name], kept[name], err_msg=name)


# SHA-256 and model_id of the file `pinned_checkpoint` writes; the SHA-256
# is of the version-7 file, the model_id of the parameters alone
PINNED_CKPT_SHA256 = "29cd02ec07f69fb1fdb29c212a856db204d374064eae6a52e29e6018fe40df58"
PINNED_MODEL_ID = "71fd7a8999a0"


def pinned_checkpoint():
    """A checkpoint whose arrays come from seeded initialization and
    element-wise products only, so its bytes do not depend on the BLAS build."""
    net = FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)
    params = {k: p.data.copy() for k, p in net.named_parameters()}
    return training.Checkpoint(
        params=params,
        optimizer=training.AdamState(m={k: v * np.float32(0.5) for k, v in params.items()},
                                     v={k: v * v for k, v in params.items()}, t=4),
        train_config=training.TrainConfig.desk(epochs=2, batch_size=4, seed=0),
        model_config=net.config,
        frontend=FrontendConfig(input_size=32),
        history=[{"epoch": 0, "train_loss": 1.5, "val_acc": 0.25, "lr": 1e-05},
                 {"epoch": 1, "train_loss": 1.25, "val_acc": 0.5, "lr": 3.99e-05}],
    )


@pytest.fixture(scope="module")
def fitted():
    train, val = tiny_fit_data()
    net = FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)
    res = training.fit(net, train, val, training.TrainConfig.desk(epochs=2, batch_size=4, seed=0),
                       frontend=FrontendConfig(input_size=32))
    return net, res.last


def logits_of(model):
    x = np.random.default_rng(7).standard_normal((2, 3, 32, 32)).astype(np.float32)
    with no_grad():
        return model(Tensor(x))[0].data


def rewrite_trailer(blob: bytes) -> bytes:
    return blob[:-32] + hashlib.sha256(blob[:-32]).digest()


def rewrite_header(blob: bytes, edit) -> bytes:
    """The file with its JSON header replaced by `edit(header)`, re-sealed."""
    (hlen,) = struct.unpack("<Q", blob[12:20])
    head = json.dumps(edit(json.loads(blob[20 : 20 + hlen])), sort_keys=True).encode()
    return rewrite_trailer(blob[:12] + struct.pack("<Q", len(head)) + head + blob[20 + hlen :])


def with_shape(h: dict, name: str, shape: list) -> dict:
    """Header `h` with the `params` entry of `name` given another shape."""
    return {**h, "params": [[n, shape if n == name else s] for n, s in h["params"]]}


def without_last_array(blob: bytes) -> bytes:
    """The file with the payload's last array (the last parameter's second
    moment) cut off, re-sealed."""
    (hlen,) = struct.unpack("<Q", blob[12:20])
    _, shape = json.loads(blob[20 : 20 + hlen])["params"][-1]
    cut = math.prod(shape) * np.dtype(np.float32).itemsize
    return rewrite_trailer(blob[: -32 - cut] + blob[-32:])


def header_field(config: str, **fields):
    """A corruption setting `fields` of the header's `config` dict."""
    return lambda b: rewrite_header(b, lambda h: {**h, config: {**h[config], **fields}})


def model_field(**fields):
    return header_field("model_config", **fields)


def train_field(**fields):
    return header_field("train_config", **fields)


class TestCheckpoint:
    def test_round_trip_of_fit_checkpoint(self, fitted, tmp_path):
        net, ckpt = fitted
        path = tmp_path / "last.ckpt"
        training.save_checkpoint(ckpt, path)
        back = training.load_checkpoint(path)
        assert back.params.keys() == ckpt.params.keys()
        for name, arr in ckpt.params.items():
            assert back.params[name].dtype == arr.dtype
            np.testing.assert_array_equal(back.params[name], arr, err_msg=name)
        assert back.optimizer.t == ckpt.optimizer.t == 4
        for moments, stored in ((back.optimizer.m, ckpt.optimizer.m),
                                (back.optimizer.v, ckpt.optimizer.v)):
            assert moments.keys() == stored.keys() == ckpt.params.keys()
            for name, arr in stored.items():
                np.testing.assert_array_equal(moments[name], arr, err_msg=name)
        assert back.train_config == ckpt.train_config
        assert back.model_config == ckpt.model_config
        assert back.frontend == ckpt.frontend
        assert back.history == ckpt.history and len(back.history) == 2
        assert back.model_id() == ckpt.model_id()
        np.testing.assert_array_equal(logits_of(back.build_model()), logits_of(net))

    def test_bytes_match_pinned_layout(self, tmp_path):
        path = tmp_path / "pinned.ckpt"
        training.save_checkpoint(pinned_checkpoint(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CKPT_SHA256
        assert training.load_checkpoint(path).model_id() == PINNED_MODEL_ID

    @pytest.mark.parametrize("corrupt, check", [
        (lambda b: b[:100] + bytes([b[100] ^ 0x01]) + b[101:], "checksum mismatch"),
        (lambda b: b"FOCALCK0" + b[8:], "magic mismatch"),
        (lambda b: rewrite_trailer(b[:8] + struct.pack("<I", 6) + b[12:]), "unsupported version 6, expected 7"),
        (lambda b: b[: len(b) // 2], "checksum mismatch"),
        (lambda b: b[:40], "truncated"),
        (lambda b: b[:6], "truncated"),
        (lambda b: rewrite_header(b, lambda h: {k: v for k, v in h.items() if k != "optimizer_t"}),
         "malformed header: KeyError\\('optimizer_t'\\)"),
        (train_field(momentum=0.9), "malformed header: TypeError.*momentum"),
        (train_field(lr_min=1.0), "malformed header: ValueError.*lr_min"),
        # a field the version-2 header had is refused, not ignored
        (header_field("frontend", win_ms=100.0), "malformed header: TypeError.*win_ms"),
        # a field the version-3 header had is refused, not ignored
        (train_field(grad_clip_norm=5.0), "malformed header: TypeError.*grad_clip_norm"),
        # a field the version-4 header had is refused, not ignored
        (model_field(kernel_sizes=[3, 5]), "malformed header: TypeError.*kernel_sizes"),
        # JSON's Infinity loads, and the first resumed step makes every parameter non-finite
        (train_field(lr_max=float("inf")), "malformed header: ValueError.*lr_max must be finite, got inf"),
        (train_field(lr_min=-1e-5), "malformed header: ValueError.*lr_min must be >= 0"),
        # JSON's true is Python's True, an int, so it would train at lr 1
        (train_field(lr_max=True), "malformed header: ValueError.*lr_max must be a real number, got True"),
        (lambda b: rewrite_header(b, lambda h: 5), "malformed header: AttributeError"),
        # model and train configs that would build, then fail or mislead at the first use
        (model_field(stage_dims=[0, 8]), "malformed header: ValueError.*stage_dims must be positive"),
        (model_field(stage_depths=[], stage_dims=[]),
         "malformed header: ValueError.*stage_depths must be positive integers"),
        (model_field(stage_depths=[1.5, 1]), "malformed header: ValueError.*stage_depths must be positive integers"),
        (model_field(stage_dims=[8.5, 16]), "malformed header: ValueError.*stage_dims must be positive integers"),
        (model_field(num_classes=2.5), "malformed header: ValueError.*num_classes must be an integer >= 2"),
        # a field the version-1 header had is refused, not ignored
        (model_field(focal_levels=2), "malformed header: TypeError.*focal_levels"),
        (train_field(seed=-1), "malformed header: ValueError.*seed must be an integer >= 0"),
        # a fraction would fail only at its first use, in numpy
        (train_field(seed=1.5), "malformed header: ValueError.*seed must be an integer >= 0, got 1.5"),
        (train_field(batch_size=1.5),
         "malformed header: ValueError.*batch_size must be an integer >= 1, got 1.5"),
        (train_field(epochs=2.5), "malformed header: ValueError.*epochs must be an integer >= 1, got 2.5"),
        (header_field("frontend", input_size=96.5),
         "malformed header: ValueError.*input_size must be an integer >= 1, got 96.5"),
        # an Adam step that is not a count divides by zero (t = -1) or is fractional on resume
        (lambda b: rewrite_header(b, lambda h: {**h, "optimizer_t": -1}),
         "malformed header: ValueError.*optimizer_t -1 is not an integer >= 0"),
        (lambda b: rewrite_header(b, lambda h: {**h, "optimizer_t": 2.5}),
         "malformed header: ValueError.*optimizer_t 2.5 is not an integer >= 0"),
        # an index that does not describe the writer's layout
        # (two entries swapped would read each other's bytes)
        (lambda b: rewrite_header(b, lambda h: {**h, "params": [h["params"][1], h["params"][0],
                                                                *h["params"][2:]]}),
         "malformed header: ValueError.*parameter \\S+ follows \\S+: names must be unique and sorted"),
        # a record of twice the elements the payload holds for it
        (lambda b: rewrite_header(b, lambda h: with_shape(h, "head.weight", [4, 32])),
         "malformed header: ValueError.*payload of \\d+ bytes, expected 3 x \\d+ for 43 "
         "parameters at optimizer_t 4"),
        (lambda b: rewrite_header(b, lambda h: with_shape(h, "head.weight", [-1, 16])),
         "malformed header: ValueError.*parameter head.weight has shape \\[-1, 16\\]"),
        (lambda b: rewrite_header(b, lambda h: {**h, "params": h["params"][:1] + h["params"]}),
         "malformed header: ValueError.*parameter (\\S+) follows \\1: names must be unique"),
        (lambda b: rewrite_header(b, lambda h: {**h, "params": h["params"][:-1]}),
         "malformed header: ValueError.*payload of \\d+ bytes, expected 3 x \\d+ for 42 "
         "parameters at optimizer_t 4"),
        (without_last_array,
         "malformed header: ValueError.*payload of \\d+ bytes, expected 3 x \\d+ for 43 "
         "parameters at optimizer_t 4"),
        # a step count of 0 says there are no moments, so the payload is too long
        (lambda b: rewrite_header(b, lambda h: {**h, "optimizer_t": 0}),
         "malformed header: ValueError.*payload of \\d+ bytes, expected 1 x \\d+ for 43 "
         "parameters at optimizer_t 0"),
        # an entry of the version-6 layout, [name, dtype, shape]: every array is float32
        (lambda b: rewrite_header(b, lambda h: {**h, "params": [[n, "<i4", shape]
                                                                for n, shape in h["params"]]}),
         "malformed header: ValueError.*too many values to unpack"),
    ], ids=["flipped_byte", "wrong_magic", "unsupported_version", "truncated_half",
            "truncated_40", "truncated_below_magic", "header_without_optimizer_t",
            "header_with_unknown_config_field", "header_with_invalid_config_value",
            "header_with_invalid_frontend", "header_with_grad_clip_norm",
            "header_with_kernel_sizes", "header_with_infinite_lr_max",
            "header_with_negative_lr_min", "header_with_bool_lr_max",
            "header_not_an_object", "header_with_zero_stage_dim", "header_with_no_stages",
            "header_with_fractional_stage_depth", "header_with_fractional_stage_dim",
            "header_with_fractional_num_classes",
            "header_with_focal_levels",
            "header_with_negative_seed", "header_with_fractional_seed",
            "header_with_fractional_batch_size", "header_with_fractional_epochs",
            "header_with_fractional_input_size", "header_with_negative_optimizer_t",
            "header_with_fractional_optimizer_t", "record_pointing_at_another_array",
            "record_with_wrong_nbytes", "record_with_negative_shape", "record_listed_twice",
            "record_missing", "payload_without_last_array", "header_with_zero_optimizer_t",
            "record_of_integer_dtype"])
    def test_unreadable_file_rejected(self, tmp_path, corrupt, check):
        path = tmp_path / "bad.ckpt"
        training.save_checkpoint(pinned_checkpoint(), path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(training.CheckpointError, match=f"bad.ckpt: {check}"):
            training.load_checkpoint(path)

    def test_build_model_rejects_missing_parameter(self):
        ckpt = pinned_checkpoint()
        del ckpt.params["head.weight"]
        with pytest.raises(training.CheckpointError, match="head.weight"):
            ckpt.build_model()

    def test_build_model_rejects_shape_mismatch(self):
        ckpt = pinned_checkpoint()
        ckpt.params["head.weight"] = ckpt.params["head.weight"][:, :-1]
        with pytest.raises(training.CheckpointError, match="shape mismatch for head.weight"):
            ckpt.build_model()

    # a (1,) moment would broadcast silently in `optimizer_step` on resume,
    # and the file holds float32 arrays only
    @pytest.mark.parametrize("kind, name, moment, check", [
        ("v", "head.weight", np.ones(1, dtype=np.float32),
         r"adam_v head.weight has shape \(1,\), its parameter \(4, 16\)"),
        ("m", "head.scale", np.ones(1, dtype=np.float32),
         re.escape("adam_m at optimizer_t 4 differs from the parameters in ['head.scale']")),
        ("m", "head.weight", np.ones((4, 16)), "adam_m head.weight is float64, not float32"),
    ], ids=["reshaped", "without_parameter", "retyped"])
    def test_moment_that_fits_no_parameter_rejected(self, tmp_path, kind, name, moment, check):
        ckpt = pinned_checkpoint()
        getattr(ckpt.optimizer, kind)[name] = moment
        with pytest.raises(training.CheckpointError, match=check):
            training.save_checkpoint(ckpt, tmp_path / "moment.ckpt")
        assert not (tmp_path / "moment.ckpt").exists()

    # a float64 file would load, and `build_model` would narrow it to a
    # float32 model that its model_id does not name
    def test_model_id_names_the_model_it_builds(self, tmp_path):
        ckpt = pinned_checkpoint()
        built = training._snapshot(ckpt.build_model(), ckpt.optimizer, ckpt.train_config,
                                   ckpt.frontend, ckpt.history)
        assert built.model_id() == ckpt.model_id() == PINNED_MODEL_ID
        wide = training._snapshot(as_float64(FocalNet(FocalNetConfig.tiny(num_classes=4), seed=0)),
                                  training.AdamState(), ckpt.train_config, ckpt.frontend, [])
        with pytest.raises(training.CheckpointError,
                           match="parameter stem.proj.weight is float64, not float32"):
            training.save_checkpoint(wide, tmp_path / "wide.ckpt")
        assert not (tmp_path / "wide.ckpt").exists()

    # on resume, the first `optimizer_step` would raise a bare KeyError
    @pytest.mark.parametrize("kind", ["m", "v"])
    def test_moments_of_different_parameters_rejected(self, tmp_path, kind):
        ckpt = pinned_checkpoint()
        del getattr(ckpt.optimizer, kind)["downsamples.0.proj.bias"]
        with pytest.raises(training.CheckpointError, match=re.escape(
                f"adam_{kind} at optimizer_t 4 differs from the parameters in "
                "['downsamples.0.proj.bias']")):
            training.save_checkpoint(ckpt, tmp_path / "moment.ckpt")

    # the file of a step-0 state holds no moments, so it could not give them back
    @pytest.mark.parametrize("kind", ["m", "v"])
    def test_moments_before_the_first_step_rejected(self, tmp_path, kind):
        ckpt = pinned_checkpoint()
        ckpt.optimizer = training.AdamState(**{kind: {"head.weight": ckpt.params["head.weight"]}})
        with pytest.raises(training.CheckpointError, match=re.escape(
                f"adam_{kind} at optimizer_t 0 differs from the parameters in ['head.weight']")):
            training.save_checkpoint(ckpt, tmp_path / "moment.ckpt")

    def test_round_trip_before_the_first_step(self, tmp_path):
        full = pinned_checkpoint()
        bare = replace(full, optimizer=training.AdamState())
        training.save_checkpoint(full, tmp_path / "full.ckpt")
        training.save_checkpoint(bare, tmp_path / "bare.ckpt")
        back = training.load_checkpoint(tmp_path / "bare.ckpt")
        assert back.optimizer == training.AdamState()
        assert back.params.keys() == bare.params.keys()
        for name, arr in bare.params.items():
            assert back.params[name].dtype == arr.dtype
            np.testing.assert_array_equal(back.params[name], arr, err_msg=name)
        assert back.model_id() == PINNED_MODEL_ID
        # the moments are the only difference: two copies of the parameters
        moment_bytes = 2 * sum(arr.nbytes for arr in bare.params.values())
        size = {name: (tmp_path / f"{name}.ckpt").stat().st_size for name in ("full", "bare")}
        assert size["full"] - size["bare"] == moment_bytes


def adam_by_hand(values: dict, steps: list, lrs: list, weight_decay: float, clip: float):
    """Adam written out in float64: global-norm clip, bias-corrected
    moments, decoupled weight decay; a missing gradient is zero."""
    p = {k: v.copy() for k, v in values.items()}
    m = {k: np.zeros_like(v) for k, v in p.items()}
    v2 = {k: np.zeros_like(v) for k, v in p.items()}
    norms = []
    for t, (grads, lr) in enumerate(zip(steps, lrs), start=1):
        g = {k: grads.get(k, np.zeros_like(p[k])) for k in p}
        norm = math.sqrt(sum(float((x**2).sum()) for x in g.values()))
        norms.append(norm)
        factor = clip / norm if norm > clip else 1.0
        for k in p:
            gk = g[k] * factor
            m[k] = 0.9 * m[k] + 0.1 * gk
            v2[k] = 0.999 * v2[k] + 0.001 * gk * gk
            mhat = m[k] / (1 - 0.9**t)
            vhat = v2[k] / (1 - 0.999**t)
            p[k] = p[k] - lr * (mhat / (np.sqrt(vhat) + 1e-8) + weight_decay * p[k])
    return p, m, v2, norms


class TestOptimizerStep:
    def test_two_steps_match_adam_by_hand(self):
        rng = np.random.default_rng(11)
        values = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5)}
        # step 1 is clipped (norm ~ 7.5 > 5); step 2 is not and has no grad for "b"
        steps = [{"a": 2.0 * rng.standard_normal((3, 4)), "b": 2.0 * rng.standard_normal(5)},
                 {"a": 0.1 * rng.standard_normal((3, 4))}]
        lrs = [1e-2, 3e-2]
        params = {k: Tensor(v.copy(), requires_grad=True) for k, v in values.items()}
        state = training.AdamState()
        norms = []
        for grads, lr in zip(steps, lrs):
            for k, p in params.items():
                p.grad = grads.get(k)
            norms.append(training.optimizer_step(params, state, lr))
        want, m, v, want_norms = adam_by_hand(values, steps, lrs, training.WEIGHT_DECAY,
                                              training.GRAD_CLIP_NORM)
        assert want_norms[0] > training.GRAD_CLIP_NORM > want_norms[1]
        np.testing.assert_allclose(norms, want_norms, rtol=1e-12)
        assert state.t == 2
        for k in values:
            assert params[k].data.dtype == np.float64
            np.testing.assert_allclose(params[k].data, want[k], rtol=1e-12, atol=1e-15, err_msg=k)
            np.testing.assert_allclose(state.m[k], m[k], rtol=1e-12, atol=1e-15, err_msg=k)
            np.testing.assert_allclose(state.v[k], v[k], rtol=1e-12, atol=1e-15, err_msg=k)

    def test_non_finite_gradient_names_parameter(self):
        params = {"stages.0.w": Tensor(np.ones(3), requires_grad=True)}
        params["stages.0.w"].grad = np.array([0.0, np.inf, 1.0])
        with pytest.raises(NumericalError, match="stages.0.w"):
            training.optimizer_step(params, training.AdamState(), 1e-3)


class TestTrainConfig:
    # a bool is an int to Python, so True would train at lr 1
    @pytest.mark.parametrize("fields, check", [
        (dict(lr_min=False, lr_max=True), "lr_min must be a real number, got False"),
        (dict(lr_max=True), "lr_max must be a real number, got True"),
    ], ids=["bool_lr_min", "bool_lr_max"])
    def test_bool_rate_names_the_field(self, fields, check):
        with pytest.raises(ValueError, match=check):
            training.TrainConfig(**fields)


class TestCyclicLr:
    def test_triangle_corners(self):
        lr = lambda step: training.cyclic_lr(step, 1e-5, 3e-3, 200)  # noqa: E731
        assert lr(0) == lr(400) == 1e-5
        assert lr(200) == lr(600) == 3e-3
        assert math.isclose(lr(100), (1e-5 + 3e-3) / 2, rel_tol=1e-12)
        assert lr(150) == lr(250)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            training.cyclic_lr(-1, 1e-5, 3e-3, 200)


class TestEvaluateAccuracy:
    def test_matches_argmax_of_logits(self, fitted):
        net, _ = fitted
        _, val = tiny_fit_data()
        with no_grad():
            want = np.mean(np.argmax(net(Tensor(val.inputs))[0].data, axis=-1) == val.labels)
        assert training.evaluate_accuracy(net, val) == want

    def test_empty_set_raises(self, fitted):
        net, _ = fitted
        empty = training.ClipSet(np.zeros((0, 3, 32, 32), np.float32), np.zeros(0, np.int64), [])
        with pytest.raises(ValueError, match="empty"):
            training.evaluate_accuracy(net, empty)
