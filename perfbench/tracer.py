"""Spans around calls into seqfuse's layers, recorded from outside the package.

A :class:`Tracer` replaces each traced public function with a wrapper in
every ``seqfuse`` module that holds it, so calls made through
``seqfuse.cli``, ``seqfuse.featureio``, ``seqfuse.training`` and
``seqfuse.metrics`` are all seen.  Spans (name, start, end, parent, extras)
stay in memory until the run writes them out.  A traced name that the
package no longer has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

# (span name, home module, attribute). ``nn.forward`` spans are split into
# ``nn.forward.train`` (given ``mask_seed``) and ``nn.forward.eval``.
TRACED = (
    ("featureio.parse_feature_csv", "seqfuse.featureio", "parse_feature_csv"),
    ("featureio.read_label_csv", "seqfuse.featureio", "read_label_csv"),
    ("featureio.align_tokens_to_frames", "seqfuse.featureio", "align_tokens_to_frames"),
    ("featureio.write_feature_csv", "seqfuse.featureio", "write_feature_csv"),
    ("featureio.frame_track_to_tokens", "seqfuse.featureio", "frame_track_to_tokens"),
    ("featureio.fuse", "seqfuse.featureio", "fuse"),
    ("nn.forward", "seqfuse.nn", "forward"),
    ("nn.backward", "seqfuse.nn", "backward"),
    ("training.adam_step", "seqfuse.training", "adam_step"),
    ("training.chunk", "seqfuse.training", "chunk"),
    ("training.mse_loss", "seqfuse.training", "mse_loss"),
    ("training.train", "seqfuse.training", "train"),
    ("training.save_checkpoint", "seqfuse.training", "save_checkpoint"),
    ("training.load_checkpoint", "seqfuse.training", "load_checkpoint"),
    ("metrics.ccc", "seqfuse.metrics", "ccc"),
    ("metrics.evaluate", "seqfuse.metrics", "evaluate"),
    ("cli.align", "seqfuse.cli", "cmd_align"),
    ("cli.train", "seqfuse.cli", "cmd_train"),
    ("cli.evaluate", "seqfuse.cli", "cmd_evaluate"),
    ("cli.predict", "seqfuse.cli", "cmd_predict"),
)

SPAN_NAMES = tuple(
    name
    for span, _, _ in TRACED
    for name in ((span + ".train", span + ".eval") if span == "nn.forward" else (span,))
)


def _parse_extras(bound, result) -> dict:
    return {"rows": len(result.tokens), "cells": len(result.tokens) * (result.dim + 2)}


def _align_extras(bound, result) -> dict:
    track = bound.arguments["track"]
    horizon = bound.arguments["n_frames"] * bound.arguments["frame_len_ms"]
    used = sum(1 for tok in track.tokens if tok.start_ms < horizon and tok.end_ms > 0)
    return {"tokens": len(track.tokens), "frames": result.n_frames, "used": used}


def _file_bytes(bound, result) -> dict:
    return {"bytes": os.path.getsize(bound.arguments["path"])}


EXTRAS = {
    "featureio.parse_feature_csv": _parse_extras,
    "featureio.align_tokens_to_frames": _align_extras,
    "featureio.write_feature_csv": _file_bytes,
    "training.save_checkpoint": _file_bytes,
    "training.chunk": lambda bound, result: {"chunks": len(result)},
    "nn.forward": lambda bound, result: {"steps": len(bound.arguments["inputs"])},
    "nn.backward": lambda bound, result: {"steps": len(bound.arguments["labels"])},
}


class Tracer:
    """Records nested spans of the traced functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, extras]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        signature = inspect.signature(fn)
        extras = EXTRAS.get(span)
        split_mode = span == "nn.forward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            name = span
            if split_mode:
                train = bound.arguments.get("mask_seed") is not None
                name = span + (".train" if train else ".eval")
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if extras is not None:
                record[4] = extras(bound, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a seqfuse module holds it."""
        modules = [m for n, m in sys.modules.items() if n == "seqfuse" or n.startswith("seqfuse.")]
        self.absent = []
        for span, home, attr in TRACED:
            fn = getattr(sys.modules.get(home), attr, None)
            if fn is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched = []


LAYERS = ("featureio", "nn", "training", "metrics", "cli")

# Per-call latency distributions: span -> (extras key or None, metric stem).
_PER_CALL = {
    "nn.forward.train": ("steps", "us_per_step"),
    "nn.forward.eval": ("steps", "us_per_step"),
    "nn.backward": ("steps", "us_per_step"),
    "training.adam_step": (None, "us_per_call"),
}

# Counters summed per iteration: (span, extras key, metric name).
_COUNTERS = (
    ("featureio.parse_feature_csv", "rows", "featureio.parse_feature_csv.rows"),
    ("featureio.align_tokens_to_frames", "tokens", "featureio.align_tokens_to_frames.tokens"),
    ("featureio.align_tokens_to_frames", "frames", "featureio.align_tokens_to_frames.frames"),
    ("featureio.write_feature_csv", "bytes", "featureio.write_feature_csv.bytes"),
    ("nn.forward.train", "steps", "nn.forward.train.steps"),
    ("nn.forward.eval", "steps", "nn.forward.eval.steps"),
    ("nn.backward", "steps", "nn.backward.steps"),
    ("training.chunk", "chunks", "training.chunk.chunks"),
    ("training.save_checkpoint", "bytes", "training.save_checkpoint.bytes"),
)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: list[list], iterations: list[tuple[int, int]]) -> dict[str, float]:
    """Per-layer metrics from spans; ``iterations`` are [lo, hi) span index ranges.

    Sums over one pipeline iteration are reduced to their median over the
    traced iterations; per-call latency percentiles pool every call.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    per_iter: dict[str, list[float]] = {}
    samples: dict[str, list[float]] = {name: [] for name in _PER_CALL}
    for lo, hi in iterations:
        sums: dict[str, float] = {}
        for idx in range(lo, hi):
            name, start, end, _, extras = spans[idx]
            busy = end - start
            sums[name + ".calls"] = sums.get(name + ".calls", 0) + 1
            sums[name + ".busy_s"] = sums.get(name + ".busy_s", 0.0) + busy
            sums[name + ".self_s"] = sums.get(name + ".self_s", 0.0) + busy - child[idx]
            for key, value in (extras or {}).items():
                sums[f"{name}#{key}"] = sums.get(f"{name}#{key}", 0) + value
            if name in _PER_CALL:
                key = _PER_CALL[name][0]
                count = extras[key] if key else 1
                if count:
                    samples[name].append(busy * 1e6 / count)
        row = {}
        for name in SPAN_NAMES:
            for stat in ("calls", "busy_s", "self_s"):
                row[f"{name}.{stat}"] = sums.get(f"{name}.{stat}", 0)
        for span, key, metric in _COUNTERS:
            row[metric] = sums.get(f"{span}#{key}", 0)
        parse_busy = row["featureio.parse_feature_csv.busy_s"]
        cells = sums.get("featureio.parse_feature_csv#cells", 0)
        row["featureio.parse_feature_csv.cells_per_s"] = cells / parse_busy if parse_busy else 0.0
        tokens = row["featureio.align_tokens_to_frames.tokens"]
        used = sums.get("featureio.align_tokens_to_frames#used", 0)
        row["featureio.tokens_used_ratio"] = used / tokens if tokens else 0.0
        total_self = sum(row[f"{name}.self_s"] for name in SPAN_NAMES)
        for layer in LAYERS:
            own = sum(row[f"{n}.self_s"] for n in SPAN_NAMES if n.split(".")[0] == layer)
            row[f"{layer}.self_share"] = own / total_self if total_self else 0.0
        for key, value in row.items():
            per_iter.setdefault(key, []).append(value)
    metrics = {key: statistics.median(values) for key, values in per_iter.items()}
    for name, (_, stem) in _PER_CALL.items():
        metrics[f"{name}.{stem}_p50"] = _percentile(samples[name], 50)
        if stem == "us_per_step":
            metrics[f"{name}.{stem}_p90"] = _percentile(samples[name], 90)
    return metrics
