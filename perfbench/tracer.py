"""Span tracing of the spikedse package from outside it.

`Tracer.install` replaces every public function of each spikedse module,
in every spikedse namespace that holds it, with a wrapper that records a
span. Nothing inside the package changes: a call is caught under the name
its caller looks up, e.g. `spikedse.cli.train`, `spikedse.cli.load_dataset`,
`spikedse.training.conv_backward` or `spikedse.network.lif_step`.

A span records its key (the function's home module and name, e.g.
"training.train", plus the namespace it was called through), start and
end in `time.perf_counter` seconds, its parent span, the benchmark
operation it ran in, and a tag set by a probe (which spiking layer, or
whether a forward pass was recorded for backward). Spans stay in memory
until the run ends.

Self time is the part of a span that no child span covers. Spans started
on a pool worker thread take the innermost open span of the calling
thread as parent, so sibling spans can overlap in time; where k siblings
overlap, each is credited 1/k of that wall time and passes its share down.
Every instant of the root span is thereby credited to exactly one span, so
the self times of all spans sum to the root span's duration.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import os
import threading
import time
from collections import defaultdict
from operator import itemgetter

import numpy as np

MODULES = ("events", "network", "training", "quantize", "costs", "dse",
           "checkpoint", "cli")
LAYERS = ("bench", "trace") + MODULES
# Spec indices of the spiking layers of both reference networks.
SPIKING = {1: "conv1", 3: "conv2", 5: "fc1", 6: "fc2"}

# Fields of a span record (a list, so the end time can be filled in).
KEY, START, END, PARENT, OP, TAG = range(6)

_clock = time.perf_counter


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self):
        self.keys: list[tuple[str, str]] = []  # (span name, namespace)
        self.spans: list[list] = []
        self.ops: list[str] = ["setup"]
        self.op = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._key_index: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._local.stack = self._main_stack
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _key(self, name: str, namespace: str) -> int:
        key = (name, namespace)
        if key not in self._key_index:
            self._key_index[key] = len(self.keys)
            self.keys.append(key)
        return self._key_index[key]

    def begin_op(self, label: str) -> None:
        """Attribute the spans that follow to a new benchmark operation."""
        self.ops.append(label)
        self.op = len(self.ops) - 1

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def _parent(self, stack: list) -> list | None:
        if stack:
            return stack[-1]
        top = self._main_stack[-1:]  # a worker thread adopts the caller's span
        return top[0] if top else None

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own code, e.g. "bench.setup"."""
        stack = self._local.stack
        rec = [self._key(name, "bench"), _clock(), 0.0, self._parent(stack),
               self.op, None]
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec[END] = _clock()
            stack.pop()

    def _wrap(self, fn, key: int, probe):
        spans, local, parent_of = self.spans, self._local, self._parent
        tracer = self
        probe_key = self._key("trace.probe", "bench")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            rec = [key, _clock(), 0.0, parent_of(stack), tracer.op, None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = _clock()
                stack.pop()
            if probe is not None:
                # A span of its own, so counting is not billed to the caller.
                probe_rec = [probe_key, _clock(), 0.0, rec[PARENT], tracer.op, None]
                probe(tracer, rec, args, kwargs, result)
                probe_rec[END] = _clock()
                spans.append(probe_rec)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public spikedse function in every spikedse namespace."""
        namespaces = {"spikedse": importlib.import_module("spikedse")}
        for name in MODULES:
            namespaces[name] = importlib.import_module(f"spikedse.{name}")
        for ns_name, module in namespaces.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith("spikedse."):
                    continue
                span_name = f"{home.split('.', 1)[1]}.{value.__name__}"
                wrapper = self._wrap(value, self._key(span_name, ns_name),
                                     PROBES.get(span_name))
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write(self, path, run_id: str) -> None:
        """Write all spans as gzipped JSON lines: a header, then one per span."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "run": run_id,
                "fields": ["name", "namespace", "start", "end", "parent",
                           "op", "tag"],
                "ops": self.ops,
            }) + "\n")
            for rec in self.spans:
                name, ns = self.keys[rec[KEY]]
                parent = rec[PARENT]
                fh.write(json.dumps([
                    name, ns, rec[START], rec[END],
                    None if parent is None else index[id(parent)],
                    self.ops[rec[OP]], rec[TAG],
                ]) + "\n")


# ---------------------------------------------------------------------------
# Probes: counters measured where the work happens
# ---------------------------------------------------------------------------

def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


@functools.lru_cache(maxsize=16)
def _conv_fanout(h: int, w: int, kernel: int, padding: int, stride: int):
    """Output positions each input pixel feeds (per output channel)."""
    h_out = (h + 2 * padding - kernel) // stride + 1
    w_out = (w + 2 * padding - kernel) // stride + 1
    counts = np.zeros((h + 2 * padding, w + 2 * padding))
    for i in range(kernel):
        for j in range(kernel):
            counts[i:i + stride * h_out:stride, j:j + stride * w_out:stride] += 1
    return counts[padding:padding + h, padding:padding + w]


def _probe_layer_forward(tracer, rec, args, kwargs, result):
    layer = _arg(args, kwargs, 0, "layer")
    x = _arg(args, kwargs, 2, "spikes_in")
    if layer.kind == "conv":
        name = "conv1" if layer.in_channels == 2 else "conv2"
        dense = result.size * layer.in_channels * layer.kernel ** 2
        fanout = _conv_fanout(x.shape[1], x.shape[2], layer.kernel,
                              layer.padding, layer.stride)
        active = layer.out_channels * float(np.sum(np.count_nonzero(x, axis=0) * fanout))
    elif layer.kind == "fully_connected":
        name = "fc2" if layer.out_channels == 2 else "fc1"
        dense = layer.in_channels * layer.out_channels
        active = layer.out_channels * np.count_nonzero(x)
    else:
        return
    rec[TAG] = name
    tracer.add(f"network.{name}.dense_macs", dense)
    tracer.add(f"network.{name}.active_macs", active)


def _probe_lif_step(tracer, rec, args, kwargs, result):
    name = SPIKING.get(_arg(args, kwargs, 1, "layer_index"))
    if name is not None:
        rec[TAG] = name
        tracer.add(f"network.{name}.spikes", float(result.sum()))
        tracer.add(f"network.{name}.neurons", result.size)


def _probe_forward(tracer, rec, args, kwargs, result):
    if kwargs.get("record", False):
        rec[TAG] = "recorded"


def _probe_conv_backward(tracer, rec, args, kwargs, result):
    weight = _arg(args, kwargs, 2, "weight")
    rec[TAG] = "conv1" if weight.shape[1] == 2 else "conv2"


def _probe_crop(tracer, rec, args, kwargs, result):
    tracer.add("events.crop.events_in", _arg(args, kwargs, 0, "sample").n_events)
    tracer.add("events.crop.events_kept", result.n_events)


def _probe_ptq(tracer, rec, args, kwargs, result):
    tracer.add("quantize.saturated", result.quant["saturated"])


def _probe_load_checkpoint(tracer, rec, args, kwargs, result):
    tracer.add("checkpoint.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _probe_emit_report(tracer, rec, args, kwargs, result):
    tracer.add("dse.points", len(_arg(args, kwargs, 0, "points")))


PROBES = {
    "network.layer_forward": _probe_layer_forward,
    "network.lif_step": _probe_lif_step,
    "network.forward": _probe_forward,
    "network.conv_backward": _probe_conv_backward,
    "events.crop": _probe_crop,
    "quantize.ptq": _probe_ptq,
    "checkpoint.load_checkpoint": _probe_load_checkpoint,
    "dse.emit_report": _probe_emit_report,
}


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _split(start: float, end: float, segs, kids: list[list]):
    """Share [start, end] between a span and its overlapping children.

    segs is the span's own credit: (a, b, weight) pieces covering the
    interval, or None for weight 1 throughout. Returns the span's self
    time and each child's credit pieces.
    """
    if segs is None:
        segs = [(start, end, 1.0)]

    def clamp(t):
        return min(max(t, start), end)

    points = sorted({start, end, *(a for a, _, _ in segs),
                     *(clamp(k[START]) for k in kids),
                     *(clamp(k[END]) for k in kids)})
    kid_segs = {id(k): [] for k in kids}
    own = 0.0
    seg_i = kid_i = 0
    active: list[list] = []
    for a, b in zip(points, points[1:]):
        while seg_i < len(segs) and segs[seg_i][1] <= a:
            seg_i += 1
        covered = seg_i < len(segs) and segs[seg_i][0] <= a
        weight = segs[seg_i][2] if covered else 0.0
        while kid_i < len(kids) and clamp(kids[kid_i][START]) <= a:
            active.append(kids[kid_i])
            kid_i += 1
        active = [k for k in active if clamp(k[END]) >= b]
        if active:
            share = weight / len(active)
            for k in active:
                kid_segs[id(k)].append((a, b, share))
        else:
            own += (b - a) * weight
    return own, kid_segs


def self_times(spans: list[list], root: list) -> dict[int, float]:
    """id(span) -> self seconds for the root and every span below it."""
    children: dict[int, list] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[id(rec[PARENT])].append(rec)
    out: dict[int, float] = {}
    todo = [(root, None)]
    while todo:
        rec, segs = todo.pop()
        kids = children.get(id(rec))
        if not kids:
            out[id(rec)] = (rec[END] - rec[START] if segs is None
                            else sum((b - a) * w for a, b, w in segs))
            continue
        kids.sort(key=itemgetter(START))
        out[id(rec)], kid_segs = _split(rec[START], rec[END], segs, kids)
        todo.extend((k, kid_segs[id(k)]) for k in kids)
    return out


def layer_metrics(tracer: Tracer, root: list, cpu_s: float):
    """Per-layer metrics, the per-layer self-time table, and (span name,
    self seconds) pairs from the largest down, for one traced run."""
    selfs = self_times(tracer.spans, root)
    self_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    ns_calls: dict[str, int] = defaultdict(int)
    inclusive: dict[tuple[str, str | None], float] = defaultdict(float)
    for rec in tracer.spans:
        name, ns = tracer.keys[rec[KEY]]
        self_by_name[name] += selfs.get(id(rec), 0.0)
        calls[name] += 1
        ns_calls[f"{ns}.{name.split('.', 1)[1]}"] += 1
        inclusive[(name, rec[TAG])] += rec[END] - rec[START]

    table = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_by_name.items():
        table[name.split(".", 1)[0]] += seconds

    c = tracer.counters
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = table[layer]
    for fn in ("parse_dat", "load_dataset", "find_attention_window",
               "occupancy_map", "crop", "bin_to_frames"):
        m[f"events.{fn}.self_s"] = self_by_name[f"events.{fn}"]
    m["events.load_dataset.calls"] = calls["events.load_dataset"]
    m["events.encode_sample.calls"] = calls["events.encode_sample"]
    m["events.crop_keep_ratio"] = (
        c["events.crop.events_kept"] / c["events.crop.events_in"]
        if c["events.crop.events_in"] else 0.0)
    for name in SPIKING.values():
        m[f"network.{name}.forward_s"] = inclusive[("network.layer_forward", name)]
        m[f"network.{name}.dense_macs"] = c[f"network.{name}.dense_macs"]
        m[f"network.{name}.active_macs"] = c[f"network.{name}.active_macs"]
        neurons = c[f"network.{name}.neurons"]
        m[f"network.{name}.spike_rate"] = (
            c[f"network.{name}.spikes"] / neurons if neurons else 0.0)
    m["network.pool.forward_s"] = inclusive[("network.avg_pool_forward", None)]
    m["network.lif.self_s"] = self_by_name["network.lif_step"]
    m["network.forward.self_s"] = self_by_name["network.forward"]
    m["network.forward.calls"] = calls["network.forward"]
    for fn in ("train", "backward", "evaluate"):
        m[f"training.{fn}.self_s"] = self_by_name[f"training.{fn}"]
    m["training.backward.calls"] = calls["training.backward"]
    m["training.evaluate.calls"] = calls["training.evaluate"]
    for name in ("conv1", "conv2"):
        m[f"training.{name}.backward_s"] = inclusive[("network.conv_backward", name)]
    m["training.pool.backward_s"] = inclusive[("network.avg_pool_backward", None)]
    m["training.recorded_forward_s"] = inclusive[("network.forward", "recorded")]
    m["quantize.ptq.self_s"] = self_by_name["quantize.ptq"]
    m["quantize.ptq.calls"] = calls["quantize.ptq"]
    m["quantize.grid_aligned.self_s"] = self_by_name["quantize.grid_aligned"]
    m["quantize.saturated"] = c["quantize.saturated"]
    m["costs.full_report.self_s"] = self_by_name["costs.full_report"]
    m["costs.full_report.calls"] = calls["costs.full_report"]
    m["dse.emit_report.self_s"] = self_by_name["dse.emit_report"]
    m["dse.select.self_s"] = self_by_name["dse.select"]
    m["dse.points"] = c["dse.points"]
    m["checkpoint.load_checkpoint.self_s"] = self_by_name["checkpoint.load_checkpoint"]
    m["checkpoint.bytes_read"] = c["checkpoint.bytes_read"]
    m["cli.main.self_s"] = self_by_name["cli.main"]
    m["cli.train.calls"] = ns_calls["cli.train"]
    wall = root[END] - root[START]
    m["proc.cpu_s"] = cpu_s
    m["proc.cpu_per_wall"] = cpu_s / wall
    m["trace.spans"] = len(tracer.spans)
    table["root"] = wall
    top = sorted(self_by_name.items(), key=itemgetter(1), reverse=True)
    return m, table, top
