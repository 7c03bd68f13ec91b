"""Training-loop tests: the step log, and the gradient-sharing contract of
the tape (first gradients are stored without a copy, so `.grad` arrays are
read-only and may be views of one another, but never of parameter data)."""

import json
import math

import numpy as np

from focalaudio import training
from focalaudio.focalnet import FocalNet, FocalNetConfig
from focalaudio.tensor import Tensor, backward

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
