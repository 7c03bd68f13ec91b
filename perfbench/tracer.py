"""Spans recorded from outside the program, by wrapping its public functions.

`Tracer.install()` replaces each traced function with a timing wrapper in
every `focalaudio` module that binds it (so `metrics.threshold_mask`,
`training.backward` and the globals the `Tensor` dunders call are all
covered), and wraps the `forward` methods of the FocalNet modules.
`uninstall()` puts the originals back. Nothing under `src/` is edited.

A span is `(name, start, end, parent, op)`: times from `time.perf_counter`,
`parent` the index of the enclosing span (-1 for none) and `op` the index
of the benchmark operation it belongs to, which is the identifier that all
spans of one operation share. The backward closure of every tensor a traced
op returns is wrapped too, so `tensor.<op>.bwd` spans sit under the
`tensor.backward` span that ran them. Spans stay in memory until `write`.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

from focalaudio import audio, focalnet, interpret, metrics, tensor, training

# Public autograd ops whose forward and backward are timed.
TENSOR_OPS = ("linear", "dwconv2d", "gelu", "layernorm", "transpose", "getitem", "mul",
              "add", "global_avg_pool", "broadcast_to", "reshape", "softmax")

# Module classes whose `forward` is timed; FocalNet's span is `FocalNet.forward`.
MODULE_CLASSES = ("PatchEmbed", "FocalLayer", "Mlp", "ChannelNorm", "FocalBlock", "FocalNet")

# Plain functions, by the module that defines them.
FUNCTIONS = {
    tensor: ("backward",),
    audio: ("load_wav", "resample", "stft", "to_model_input", "istft_reconstruct", "augment"),
    interpret: ("threshold_mask", "apply_mask", "modulation_map", "listenable_interpretation"),
    metrics: ("quantile_sweep",),
    training: ("optimizer_step", "am_softmax_loss", "evaluate_accuracy"),
}


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "focalaudio" or name.startswith("focalaudio.")]


def _tape_size(loss) -> int:
    """Nodes `tensor.backward` will visit: the recorded ancestors of `loss`."""
    seen, stack, n = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            n += 1
            stack.extend(t._parents)
    return n


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list = []
        self._restore: list = []

    # -- spans -----------------------------------------------------------------

    def _open(self) -> tuple:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float) -> None:
        self._stack.pop()
        self.spans[idx] = (name, start, time.perf_counter(), parent, self.op)

    @contextmanager
    def span(self, name: str):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start)

    def timed(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(args, result)` runs outside the span."""

        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, start)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patches ---------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _tensor_op_after(self, op: str):
        bwd_name = f"tensor.{op}.bwd"
        counters = self.counters

        def after(args, out):
            if op == "linear":
                x, w = args[0], args[1]
                rows = x.data.size // x.shape[-1]
                counters["linear.flop"] += 2 * rows * w.shape[0] * w.shape[1]
                counters["linear.noncontig"] += not x.data.flags.c_contiguous
            elif op == "dwconv2d":
                k = args[1]
                counters["dwconv2d.flop"] += 2 * out.data.size * k.shape[1] * k.shape[2]
            if out._backward is not None:
                out._backward = self.timed(bwd_name, out._backward)

        return after

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for op in TENSOR_OPS:
            fn = getattr(tensor, op)
            self._replace_everywhere(fn, self.timed(f"tensor.{op}", fn, self._tensor_op_after(op)))
        for mod, names in FUNCTIONS.items():
            for name in names:
                fn = getattr(mod, name)
                after = None
                if fn is tensor.backward:
                    def after(args, _out):
                        self.counters["tape_nodes"] += _tape_size(args[0])
                elif fn is metrics.quantile_sweep:
                    def after(args, _out):
                        self.counters["swept_clips"] += len(args[1])
                wrapped = self.timed(f"{mod.__name__.split('.')[-1]}.{name}", fn, after)
                self._replace_everywhere(fn, wrapped)
        for cls_name in MODULE_CLASSES:
            cls = getattr(focalnet, cls_name)
            fn = cls.forward
            after = None
            if cls_name == "FocalNet":
                def after(args, _out):
                    x = args[1]
                    self.counters["forward.batch"] += x.shape[0] if x.ndim == 4 else 1
            self._restore.append((cls, "forward", fn))
            span_name = f"focalnet.{cls_name}" + (".forward" if cls_name == "FocalNet" else "")
            cls.forward = self.timed(span_name, fn, after)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading the record ----------------------------------------------------

    def totals(self, ops: set | None = None) -> tuple[Counter, Counter]:
        """(seconds, calls) per span name, over the given op indices."""
        secs: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, _parent, op in self.spans:
            if ops is None or op in ops:
                secs[name] += end - start
                calls[name] += 1
        return secs, calls

    def count_under(self, name: str, ancestor: str, ops: set) -> int:
        """Spans called `name` that have an `ancestor` span above them."""
        n = 0
        for sp in self.spans:
            if sp[0] != name or sp[4] not in ops:
                continue
            p = sp[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            n += p >= 0
        return n

    def write(self, path, meta: dict) -> None:
        """Gzipped JSON: a name table and one `[name, start_us, end_us,
        parent, op]` row per span, times relative to the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, op]
                for n, s, e, p, op in self.spans]
        with gzip.open(path, "wt") as f:
            json.dump({"meta": meta, "names": names,
                       "columns": ["name", "start_us", "end_us", "parent", "op"],
                       "spans": rows}, f)
