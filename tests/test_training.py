"""Training-loop tests: the step log, the gradient-sharing contract of the
tape (first gradients are stored without a copy, so `.grad` arrays are
read-only and may be views of one another, but never of parameter data), and
the checkpoint container."""

import hashlib
import json
import math
import struct

import numpy as np
import pytest

from focalaudio import training
from focalaudio.audio import FrontendConfig
from focalaudio.focalnet import FocalNet, FocalNetConfig
from focalaudio.tensor import Tensor, backward, no_grad

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
        res = training.fit(net, train, val, config, run_dir=tmp_path)
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
        lines = training.fit(net, train, val, config).log_lines
        assert len(lines) == len(PINNED_LOG)
        for line, (step, lr, loss, gnorm) in zip(lines, PINNED_LOG):
            assert line["step"] == step
            assert line["lr"] == lr
            assert math.isclose(line["loss"], loss, rel_tol=1e-6)
            assert math.isclose(line["grad_norm"], gnorm, rel_tol=1e-6)


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


# SHA-256 and model_id of the file `pinned_checkpoint` writes, recorded
# before checkpoints and spectrograms shared one container writer
PINNED_CKPT_SHA256 = "34ccca2552ae769af4652af7242e6531620961ef05419a54f87faa66c0c5d207"
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
    res = training.fit(net, train, val, training.TrainConfig.desk(epochs=2, batch_size=4, seed=0))
    return net, res.last


def logits_of(model):
    x = np.random.default_rng(7).standard_normal((2, 3, 32, 32)).astype(np.float32)
    with no_grad():
        return model(Tensor(x))[0].data


def rewrite_trailer(blob: bytes) -> bytes:
    return blob[:-32] + hashlib.sha256(blob[:-32]).digest()


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
        (lambda b: rewrite_trailer(b[:8] + struct.pack("<I", 2) + b[12:]), "unsupported version 2"),
        (lambda b: b[: len(b) // 2], "checksum mismatch"),
        (lambda b: b[:40], "truncated"),
        (lambda b: b[:6], "truncated"),
    ], ids=["flipped_byte", "wrong_magic", "unsupported_version", "truncated_half",
            "truncated_40", "truncated_below_magic"])
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
