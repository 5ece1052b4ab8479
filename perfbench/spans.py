"""Span recording around mulr's public functions, from outside the package.

``Tracer.install`` rebinds each traced function in every mulr module that
holds a reference to it (``from .x import f`` copies included), so calls
made by ``mulr.pipeline``, ``mulr.cli`` and the rest go through a wrapper
that records a span: name, start, end and parent span. ``uninstall``
restores the originals. Spans stay in memory; the benchmark writes them
out when it ends.

The wrappers for the three trainers also pass an ``on_epoch_end`` callback
when the caller gave none, which yields per-epoch end times and losses.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("pipeline", "cli", "corpus", "dataset", "typer", "embeddings",
           "metrics")

# defining module -> traced public names
TRACED = {
    "embeddings": ("train_sgns", "train_subword_sgns", "save_embeddings",
                   "load_embeddings"),
    "corpus": ("build_vocabulary", "build_subword_index",
               "build_three_copy_corpus", "load_corpus"),
    "typer": ("train", "calibrate_thresholds", "calibrate_from_scores",
              "predict_with_scores", "save_model", "load_model"),
    "metrics": ("build_report",),
    "pipeline": ("read_predictions",),
    "dataset": ("load_dataset", "load_type_system", "refine"),
}
TRAINERS = ("train_sgns", "train_subword_sgns", "train")


def _in_vocab_tokens(stream, vocab) -> int:
    index = vocab.index
    return sum(1 for sent in stream for tok in sent if tok in index)


def _file_bytes(path) -> int:
    return os.path.getsize(path)


# per-call observations: name -> fn(bound arguments, result) -> {key: value}
OBSERVE = {
    "train_sgns": lambda a, r: {
        "tokens": _in_vocab_tokens(a["stream"], a["vocab"])},
    "train_subword_sgns": lambda a, r: {
        "tokens": _in_vocab_tokens(a["stream"], a["vocab"])},
    "save_embeddings": lambda a, r: {"bytes": _file_bytes(a["path"])},
    "save_model": lambda a, r: {"bytes": _file_bytes(a["path"])},
    "build_three_copy_corpus": lambda a, r: {"sentences": len(r)},
    "build_vocabulary": lambda a, r: {"size": len(r)},
    "build_subword_index": lambda a, r: {"size": len(r)},
    "frozen_matrix": lambda a, r: {"rows": len(a["instances"]),
                                   "input_dim": a["self"].input_dim},
    "train": lambda a, r: {"best_dev_f1": r.dev_metric},
    "calibrate_from_scores": lambda a, r: {"types": len(r)},
}


class Tracer:
    """In-memory span recorder; one per traced process section."""

    def __init__(self, names=None, observe: bool = True):
        self.names = names          # None traces everything in TRACED
        self.observe = observe      # False skips per-call observations
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        observe = OBSERVE.get(name) if self.observe else None
        inject = name in TRAINERS

        def wrapper(*args, **kwargs):
            bound = None
            if inject or observe is not None:
                bound = sig.bind(*args, **kwargs)
            with self.span(name) as rec:
                if inject and bound.arguments.get("on_epoch_end") is None:
                    epochs = rec["epochs_log"] = []
                    bound.arguments["on_epoch_end"] = (
                        lambda *vals: epochs.append(
                            [time.perf_counter(), *map(float, vals[1:])]))
                if bound is not None:
                    args, kwargs = bound.args, bound.kwargs
                result = fn(*args, **kwargs)
            if "epochs_log" in rec:
                rec["epochs"] = len(rec["epochs_log"])
            if observe is not None:
                rec.update(observe(bound.arguments, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__signature__ = sig
        return wrapper

    def install(self) -> "Tracer":
        from mulr.typer import TyperModel
        mods = {m: importlib.import_module(f"mulr.{m}") for m in MODULES}
        for home, names in TRACED.items():
            for name in names:
                if self.names is not None and name not in self.names:
                    continue
                original = getattr(mods[home], name)
                wrapper = self._wrap(name, original)
                for mod in mods.values():
                    if mod.__dict__.get(name) is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)
        if self.names is None or "frozen_matrix" in self.names:
            original = TyperModel.frozen_matrix
            self._undo.append((TyperModel, "frozen_matrix", original))
            TyperModel.frozen_matrix = self._wrap("frozen_matrix", original)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


class SpanTable:
    """Totals, self times, counts and observations per span name."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.count = defaultdict(int)
        for s, own in zip(spans, self_times(spans)):
            self.total[s["name"]] += s["end"] - s["start"]
            self.own[s["name"]] += own
            self.count[s["name"]] += 1

    def of(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def values(self, name: str, key: str) -> list:
        return [s[key] for s in self.of(name) if s.get(key) is not None]
