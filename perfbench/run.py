"""Benchmark of the focalaudio pipeline: one workload per run.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from `src/`. A run
sets the workload up `SETUP_REPS` times (once when tracing), times
operations for `--seconds`, then checks outputs against `reference.json`.
It prints each metric as `name value unit`, then one JSON line:
`{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics. `--trace 1` spends the first
half of the timed phase untraced and the second half with the tracer
installed, reports the per-layer metrics (per operation unless the name
ends in `_s`) and writes the spans to `perfbench/out/`.

Every run writes its metrics and metadata (shapes, BLAS, versions, commit,
seed, tail percentile, check details) to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_REPS = 5
# Peak memory is read after a fixed amount of work, not at the end of the
# phase: the tape's reference cycles are freed only by the cyclic garbage
# collector, so resident memory keeps growing for a while and a value read
# at the end would scale with how many operations fitted in the run.
PEAK_RSS_OPS = 12

END_TO_END = [
    ("clips_per_s", "clips/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def use_source_tree() -> None:
    """Import `focalaudio` from this checkout's `src/`."""
    if not (SRC / "focalaudio" / "__init__.py").is_file():
        raise FileNotFoundError(f"no focalaudio package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def per_layer_units() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    from tracer import FUNCTIONS, MODULE_CLASSES, TENSOR_OPS

    rows = []
    for op in TENSOR_OPS:
        rows += [(f"tensor.{op}.fwd_ms", "ms"), (f"tensor.{op}.bwd_ms", "ms"),
                 (f"tensor.{op}.calls", "count")]
    rows += [("tensor.backward.ms", "ms"), ("tensor.tape_nodes", "count"),
             ("tensor.linear.gflop_per_s", "GFLOP/s"), ("tensor.dwconv2d.gflop_per_s", "GFLOP/s"),
             ("tensor.linear.noncontig_inputs", "count")]
    rows += [(f"focalnet.{c}.ms", "ms") for c in MODULE_CLASSES if c != "FocalNet"]
    rows += [("focalnet.FocalNet.forward.ms", "ms"), ("focalnet.FocalNet.forward.calls", "count"),
             ("focalnet.FocalNet.forward.batch_mean", "clips"), ("focalnet.build_s", "s")]
    for mod, names in FUNCTIONS.items():
        short = mod.__name__.split(".")[-1]
        if short != "tensor":
            rows += [(f"{short}.{n}.ms", "ms") for n in names]
    rows += [("interpret.threshold_mask.calls", "count"), ("metrics.forwards_per_clip", "count"),
             ("audio.to_model_input.calls", "count"),
             ("training.save_checkpoint_s", "s"), ("training.load_checkpoint_s", "s"),
             ("data.generate_synthetic_dataset_s", "s"), ("data.load_split_s", "s"),
             ("warmup_op_ms", "ms"), ("trace_overhead_frac", "ratio")]
    return rows


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_phase(workload, state, seconds: float, tracer=None) -> tuple[list, float, float]:
    """Operations back to back until `seconds` have passed (closed loop, one
    caller). Returns (records, wall seconds, peak RSS in MB once
    `PEAK_RSS_OPS` operations are done, or at the end if fewer ran). With a
    tracer, each call to `run_op` is one span `bench.op` and one op index."""
    from workloads import OpRecord

    records = []
    peak = None
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        op_start = time.perf_counter()
        try:
            if tracer is None:
                records += workload.run_op(state)
            else:
                tracer.op += 1
                with tracer.span("bench.op"):
                    records += workload.run_op(state)
        except Exception:  # the phase keeps running; the op counts as failed
            traceback.print_exc()
            records.append(OpRecord(time.perf_counter() - op_start, 0, False))
        if peak is None and len(records) >= PEAK_RSS_OPS:
            peak = peak_rss_mb()
    wall = time.perf_counter() - start
    return records, wall, peak_rss_mb() if peak is None else peak


def clips_per_s(records: list, wall: float) -> float:
    return sum(r.clips for r in records if r.ok) / wall


def latency_stats(records: list, tail_pct: float) -> dict:
    """Median and tail of the successful operations (of all, if none succeeded)."""
    import numpy as np

    lat = np.array([r.latency_s for r in records if r.ok] or [r.latency_s for r in records]) * 1e3
    tail = float(np.percentile(lat, tail_pct))
    return {"p50_ms": float(np.median(lat)), "tail_ms": tail, "tail_pct": tail_pct,
            "samples": int(lat.size), "beyond_tail": int((lat > tail).sum())}


def per_layer(tracer, n_ops: int, overhead: float) -> dict:
    """Per-layer metrics from the spans of the traced phase (op >= 0) and of
    set-up (op -1)."""
    from tracer import FUNCTIONS, MODULE_CLASSES, TENSOR_OPS

    ops = set(range(tracer.op + 1))
    secs, calls = tracer.totals(ops)
    setup_secs, _ = tracer.totals({-1})
    c = tracer.counters
    n = max(n_ops, 1)

    def ms(name):
        return 1e3 * secs[name] / n

    def gflops(op):
        return c[f"{op}.flop"] / secs[f"tensor.{op}"] / 1e9 if secs[f"tensor.{op}"] else 0.0

    m = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}")
        m[f"tensor.{op}.bwd_ms"] = ms(f"tensor.{op}.bwd")
        m[f"tensor.{op}.calls"] = calls[f"tensor.{op}"] / n
    m["tensor.backward.ms"] = ms("tensor.backward")
    m["tensor.tape_nodes"] = c["tape_nodes"] / n
    m["tensor.linear.gflop_per_s"] = gflops("linear")
    m["tensor.dwconv2d.gflop_per_s"] = gflops("dwconv2d")
    m["tensor.linear.noncontig_inputs"] = c["linear.noncontig"] / n
    for cls in MODULE_CLASSES:
        if cls != "FocalNet":
            m[f"focalnet.{cls}.ms"] = ms(f"focalnet.{cls}")
    fwd = "focalnet.FocalNet.forward"
    m[f"{fwd}.ms"] = ms(fwd)
    m[f"{fwd}.calls"] = calls[fwd] / n
    m[f"{fwd}.batch_mean"] = c["forward.batch"] / calls[fwd] if calls[fwd] else 0.0
    m["focalnet.build_s"] = setup_secs["focalnet.build"]
    for mod, names in FUNCTIONS.items():
        short = mod.__name__.split(".")[-1]
        if short != "tensor":
            for name in names:
                m[f"{short}.{name}.ms"] = ms(f"{short}.{name}")
    m["interpret.threshold_mask.calls"] = calls["interpret.threshold_mask"] / n
    swept = c["swept_clips"]
    m["metrics.forwards_per_clip"] = (
        tracer.count_under(fwd, "metrics.quantile_sweep", ops) / swept if swept else 0.0)
    m["audio.to_model_input.calls"] = calls["audio.to_model_input"] / n
    for name in ("training.save_checkpoint", "training.load_checkpoint",
                 "data.generate_synthetic_dataset", "data.load_split"):
        m[f"{name}_s"] = float(setup_secs[name])
    m["warmup_op_ms"] = 1e3 * setup_secs["warmup_op"]
    m["trace_overhead_frac"] = overhead
    return m


def reference_checks(workload, workdir: Path) -> list:
    from tracer import Tracer
    from workloads import Check

    try:
        ref = json.loads(REFERENCE.read_text())["workloads"][workload.name]
        return workload.compare(workload.reference_outputs(workdir, Tracer()), ref)
    except Exception:  # a check that cannot run is a failed check
        traceback.print_exc()
        return [Check("reference pass", False, traceback.format_exc(limit=1))]


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, run the timed phase(s) and the checks; returns the result
    object (`correct`, `attempted`, `failed`, `metrics`) plus `meta`."""
    from tracer import Tracer

    tracer = Tracer()
    setup_times = []
    state = None
    for rep in range(1 if trace else SETUP_REPS):
        state = None
        gc.collect()
        shutil.rmtree(workdir / f"setup{rep - 1}", ignore_errors=True)
        start = time.perf_counter()
        state = workload.setup(seed, workdir / f"setup{rep}", tracer)
        setup_times.append(time.perf_counter() - start)

    overhead = None
    if trace:
        plain, plain_wall, peak = timed_phase(workload, state, seconds / 2)
        with tracer.installed():
            traced, traced_wall, _ = timed_phase(workload, state, seconds / 2, tracer)
        untraced = clips_per_s(plain, plain_wall)
        overhead = 1.0 - clips_per_s(traced, traced_wall) / untraced if untraced else 1.0
        records, wall = plain + traced, plain_wall + traced_wall
    else:
        records, wall, peak = timed_phase(workload, state, seconds)
    shapes = workload.shapes(state)
    checks = workload.state_checks(state)
    state = None
    gc.collect()
    checks += reference_checks(workload, workdir / "reference")

    attempted = len(records) + len(checks)
    failed = sum(not r.ok for r in records) + sum(not ch.ok for ch in checks)
    lat = latency_stats(records if not trace else plain, workload.tail_pct)
    if trace:
        metrics = per_layer(tracer, len(traced), overhead)
        units = dict(per_layer_units())
    else:
        metrics = {"clips_per_s": clips_per_s(records, wall), "op_p50_ms": lat["p50_ms"],
                   "op_tail_ms": lat["tail_ms"], "setup_s": sorted(setup_times)[len(setup_times) // 2],
                   "peak_rss_mb": peak}
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    meta = run_metadata(workload, seed, seconds, trace)
    meta.update({
        "input_shapes": shapes,
        "setup_s_each": setup_times,
        "timed_wall_s": wall,
        "ops": len(records),
        "latency": lat,
        "failed_frac": failed / attempted,
        "trace_overhead_frac": overhead,
        "checks": [vars(ch) for ch in checks],
    })
    return {"result": result, "meta": meta, "tracer": tracer if trace else None}


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def blas_info() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
           if k in os.environ}
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "env": env}


def git_commit() -> str | None:
    """HEAD of the checkout, read from `.git` without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_metadata(workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_reps": 1 if trace else SETUP_REPS,
        "dtype": "float32",
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "loop": "closed, one caller, no extra threads",
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        use_source_tree()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        run = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result, meta = run["result"], run["meta"]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"result": result, "meta": meta}, indent=1))
    if run["tracer"] is not None:
        run["tracer"].write(OUT / f"{stem}-spans.json.gz", meta)

    for ch in meta["checks"]:
        print(f"check {ch['label']}: {'ok' if ch['ok'] else 'FAILED'} ({ch['detail']})")
    lat = meta["latency"]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {meta['ops']} ops, "
          f"tail = p{lat['tail_pct']:g} with {lat['beyond_tail']} of {lat['samples']} beyond, "
          f"failed_frac {meta['failed_frac']:.4g}, BLAS threads {meta['blas']['threads']}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
