"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q            # all
    PYTHONPATH=src python -m pytest perfbench -q -m "not slow"

The `slow` cases run the 80.2M-parameter workload (about a minute and
1.4 GB each).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.use_source_tree()

from focalaudio import audio, interpret, metrics, tensor, training  # noqa: E402
from focalaudio.focalnet import FocalNet, FocalNetConfig  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def expected_forward_calls(cfg: FocalNetConfig) -> dict:
    """Public-op calls of one `FocalNet.forward`, counted from the code's
    structure: per block four channel projections in FocalLayer and two in
    Mlp, each wrapped in a `moveaxis` pair; per patch embedding one
    transpose, one moveaxis and two reshapes; the cosine head normalizes
    features and class weights (mul, add) and scales the logits (mul)."""
    blocks = sum(cfg.stage_depths)
    levels = sum(lv * d for lv, d in zip(cfg.focal_levels, cfg.stage_depths))
    embeds = len(cfg.stage_depths)
    return {
        "transpose": 10 * blocks + 2 * embeds,
        "linear": 6 * blocks + embeds + 1,
        "dwconv2d": levels,
        "gelu": levels + blocks,
        "getitem": levels + blocks,
        "broadcast_to": blocks,
        "global_avg_pool": blocks + 1,
        "layernorm": 2 * blocks + 1,
        "reshape": blocks + 2 * embeds,
        "mul": levels + 2 * blocks + 3,
        "add": levels + 2 * blocks + 2,
        "softmax": 0,
    }


def test_derived_counts_match_the_stated_ones():
    assert expected_forward_calls(FocalNetConfig.desk(4))["transpose"] == 44
    assert expected_forward_calls(FocalNetConfig.desk(4))["linear"] == 27
    assert expected_forward_calls(FocalNetConfig.default(50))["transpose"] == 248


def test_traced_calls_on_one_desk_forward_match_the_config():
    cfg = FocalNetConfig.desk(4)
    model = FocalNet(cfg, seed=0)
    x = tensor.Tensor(np.random.default_rng(0).standard_normal((2, 3, 96, 96)).astype(np.float32))
    tr = Tracer()
    with tr.installed(), tensor.no_grad():
        model.forward(x)
    _, calls = tr.totals()
    got = {op: calls[f"tensor.{op}"] for op in expected_forward_calls(cfg)}
    assert got == expected_forward_calls(cfg)
    assert calls["focalnet.FocalNet.forward"] == 1
    assert calls["focalnet.FocalBlock"] == sum(cfg.stage_depths)
    assert tr.counters["forward.batch"] == 2


def test_traced_names_are_patched_where_they_are_looked_up():
    sites = [(metrics, "threshold_mask", interpret.threshold_mask),
             (metrics, "to_model_input", audio.to_model_input),
             (training, "backward", tensor.backward),
             (training, "augment", audio.augment),
             (tensor, "add", tensor.add),
             (tensor, "getitem", tensor.getitem)]
    tr = Tracer()
    with tr.installed():
        for mod, name, original in sites:
            assert getattr(mod, name) is not original, f"{mod.__name__}.{name} not patched"
            assert getattr(mod, name).__wrapped__ is original
    for mod, name, original in sites:
        assert getattr(mod, name) is original, f"{mod.__name__}.{name} not restored"


def test_backward_closures_are_timed_under_the_backward_span():
    model = FocalNet(FocalNetConfig.tiny(4), seed=0)
    x = tensor.Tensor(np.random.default_rng(1).standard_normal((2, 3, 32, 32)).astype(np.float32))
    tr = Tracer()
    with tr.installed():
        feats, _ = model.forward_features(x)
        loss = training.am_softmax_loss(feats, model.head.weight, [0, 1], 0.2, 30.0)
        training.backward(loss)
    names = [s[0] for s in tr.spans]
    for op in ("linear", "dwconv2d", "layernorm", "gelu"):
        bwd = [s for s in tr.spans if s[0] == f"tensor.{op}.bwd"]
        assert bwd, op
        assert all(names[s[3]] == "tensor.backward" for s in bwd)
    assert tr.counters["tape_nodes"] > 0
    assert model.stem.proj.weight.grad is not None


@pytest.mark.parametrize("name", ["train_desk", "interpret_desk",
                                  pytest.param("infer_base", marks=pytest.mark.slow)])
def test_second_seed_runs_clean_and_a_perturbed_weight_fails(name, tmp_path):
    clean = run.measure(WORKLOADS[name](), seed=1, seconds=1.0, trace=False,
                        workdir=tmp_path / "clean")
    assert clean["result"]["correct"], clean["meta"]["checks"]
    assert clean["result"]["failed"] == 0
    bad = run.measure(WORKLOADS[name](perturb=0.05), seed=1, seconds=1.0, trace=False,
                      workdir=tmp_path / "bad")
    assert not bad["result"]["correct"]
    assert bad["meta"]["failed_frac"] > 0
    assert not any(ch["ok"] for ch in bad["meta"]["checks"]
                   if ch["label"] != "checkpoint round trip")


def test_benchmark_json_declares_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    # infer_base is run by hand only: its set-up is too long for the standard runs
    assert [w["name"] for w in spec["workloads"]] == [n for n in WORKLOADS if n != "infer_base"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def _cli(args: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_the_declared_metrics_last(trace):
    proc = _cli(["--workload", "interpret_desk", "--seed", "2", "--seconds", "1",
                 "--trace", str(trace)], run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.per_layer_units() if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == declared


def test_cli_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli(["--workload", "interpret_desk", "--seed", "0", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
