"""Span tracer that times calls into evidkit's layers from outside.

Each layer is one evidkit module. The tracer replaces, in every layer
module, each public function imported from another layer with a wrapper
that records a span: name, start, end, parent. That is the place where the
caller looks the function up, so only cross-layer calls are recorded;
calls inside one layer stay in that layer's self time. Spans live in
compact arrays in memory and are reduced to per-layer numbers after each
traced op. No program file is changed: the wrappers are module attributes
set for the duration of one op.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = (
    "special",
    "evidence",
    "losses",
    "regularizers",
    "gradcheck",
    "network",
    "datasets",
    "metrics",
    "trainer",
    "cli",
)

# Span name of the benchmark's own op span; its self time is the part of
# the op that no layer span covers.
OP_SPAN = "bench.op"


def _layer_of(module_name: str) -> str | None:
    prefix, _, short = module_name.partition(".")
    if prefix == "evidkit" and short in LAYERS:
        return short
    return None


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return int(shape[0]) if len(shape) > 1 else 1


def _matmul_params(net) -> tuple[int, int]:
    """(all weight entries, weight entries past the first layer)."""
    sizes = [int(w.size) for w in net.weights]
    return sum(sizes), sum(sizes[1:])


def _meter_forward(c, args, kwargs, result):
    rows = _rows(args[1])
    total, _ = _matmul_params(args[0])
    c["forward_rows"] += rows
    c["flops"] += 2 * rows * total


def _meter_backward(c, args, kwargs, result):
    rows = _rows(args[2])
    total, past_first = _matmul_params(args[0])
    # d.T @ inputs for every layer, d @ W for every layer but the first
    c["flops"] += 2 * rows * (total + past_first)


def _meter_step(c, args, kwargs, result):
    net, opt = args[0], args[1]
    params = sum(int(w.size) for w in net.weights) + sum(int(b.size) for b in net.biases)
    # Adam reads p, g, m, v and writes p, m, v; momentum SGD reads p, g, v
    # and writes p, v. 8-byte floats.
    arrays = 7 if str(getattr(opt.kind, "value", opt.kind)) == "adam_like" else 5
    c["step_bytes"] += 8 * arrays * params


def _meter_dataset_result(c, args, kwargs, result):
    c["dataset_rows"] += _rows(result.features)


def _meter_dataset_arg(c, args, kwargs, result):
    c["dataset_rows"] += _rows(args[0].features)


def _meter_records_arg(c, args, kwargs, result):
    c["records"] += len(args[0])


def _meter_records_result(c, args, kwargs, result):
    c["records"] += len(result)


def _meter_loss_eval(c, args, kwargs, result):
    c["loss_evals"] += 1


# Counters kept at span boundaries, keyed by span name.
METERS = {
    "network.forward": _meter_forward,
    "network.backward": _meter_backward,
    "network.step": _meter_step,
    "datasets.load_csv": _meter_dataset_result,
    "datasets.make_blobs": _meter_dataset_result,
    "datasets.make_ood_shift": _meter_dataset_result,
    "datasets.make_toy4": _meter_dataset_result,
    "datasets.save_csv": _meter_dataset_arg,
    "metrics.save_records": _meter_records_arg,
    "metrics.load_records": _meter_records_result,
}

# Counters kept at one call site only: (calling layer, span name).
SITE_METERS = {
    ("gradcheck", "regularizers.composite_loss"): _meter_loss_eval,
}

COUNTERS = ("forward_rows", "flops", "step_bytes", "dataset_rows", "records", "loss_evals")


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        # Wrappers bind these objects once, so reset() clears them in place.
        self.sid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def reset(self) -> None:
        for arr in (self.sid, self.parent, self.start, self.end):
            del arr[:]
        self.stack[:] = [-1]
        self.counters.update(dict.fromkeys(COUNTERS, 0))

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, meter=None):
        nid = self._name_id(name)
        sid, parent, start, end, stack = self.sid, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        # Two variants so that the hot, meter-free calls (special functions,
        # evidence states) pay for no meter check.
        if meter is None:

            def traced(*args, **kwargs):
                i = len(start)
                sid.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()

        else:
            counters = self.counters

            def traced(*args, **kwargs):
                i = len(start)
                sid.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
                meter(counters, args, kwargs, result)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, entries=()) -> None:
        """Wrap every cross-layer lookup of a public layer function.

        `entries` names (module, function) pairs the benchmark itself calls;
        they are wrapped in their defining module.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            mod = importlib.import_module(f"evidkit.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = _layer_of(obj.__module__)
                if owner is None or owner == layer:
                    continue
                name = f"{owner}.{obj.__name__}"
                meter = SITE_METERS.get((layer, name), METERS.get(name))
                self._patch(mod, attr, self.wrap(obj, name, meter))
        for mod_name, attr in entries:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            name = f"{_layer_of(mod_name)}.{attr}"
            self._patch(mod, attr, self.wrap(fn, name, METERS.get(name)))

    def _patch(self, mod, attr, new) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._patches):
            setattr(mod, attr, old)
        self._patches.clear()

    def op_span(self, fn, *args):
        """Run fn(*args) under the benchmark's own op span."""
        return self.wrap(fn, OP_SPAN)(*args)

    def arrays(self) -> dict:
        """Copies of the recorded spans as NumPy arrays."""
        fields = {"sid": self.sid, "parent": self.parent, "start": self.start, "end": self.end}
        return {k: np.frombuffer(a, dtype=a.typecode).copy() for k, a in fields.items()}


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def layer_metrics(tracer: Tracer, items: int) -> dict:
    """Per-layer numbers for the op traced since the last reset()."""
    spans = tracer.arrays()
    own = self_times(spans)
    names = tracer.names
    name_layer = [n.partition(".")[0] for n in names]
    calls_by_name = np.bincount(spans["sid"], minlength=len(names))
    self_by_name = np.bincount(spans["sid"], weights=own, minlength=len(names))

    def layer_sum(arr, layer):
        return float(sum(arr[i] for i, lay in enumerate(name_layer) if lay == layer))

    def by_name(arr, name):
        return float(arr[names.index(name)]) if name in names else 0.0

    c = tracer.counters
    op_mask = spans["sid"] == names.index(OP_SPAN)
    op_wall = float((spans["end"] - spans["start"])[op_mask].sum())
    out = {f"{layer}.self_s": layer_sum(self_by_name, layer) for layer in LAYERS}
    out.update(
        {
            "special.calls": layer_sum(calls_by_name, "special"),
            "evidence.calls": by_name(calls_by_name, "evidence.evidence_state"),
            "losses.calls": layer_sum(calls_by_name, "losses"),
            "regularizers.calls": layer_sum(calls_by_name, "regularizers"),
            "gradcheck.loss_evals": float(c["loss_evals"]),
            "network.forward_s": by_name(self_by_name, "network.forward"),
            "network.backward_s": by_name(self_by_name, "network.backward"),
            "network.step_s": by_name(self_by_name, "network.step"),
            "network.flops": float(c["flops"]),
            "network.step_bytes": float(c["step_bytes"]),
            "datasets.rows": float(c["dataset_rows"]),
            "metrics.records": float(c["records"]),
            "op.traced_s": op_wall,
            "op.remainder_s": layer_sum(self_by_name, "bench"),
        }
    )
    out["evidence.calls_per_item"] = out["evidence.calls"] / items
    out["network.forward_rows_per_item"] = c["forward_rows"] / items
    busy = out["network.forward_s"] + out["network.backward_s"]
    out["network.gflops_per_s"] = out["network.flops"] / busy / 1e9 if busy > 0 else 0.0
    return out
