"""Spans around the public calls of flowcoreset's modules, kept in memory.

The program is not changed: wrappers replace a public function in every
flowcoreset module that holds a reference to it, and are removed again
after the round. A span is (name, start, end, parent); log_posterior calls
are only counted, since a span per gradient would cost more than the
gradient at coreset sizes.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np

# Public functions a traced round wraps, by defining module.
TRACED = {
    "data": ("ingest_csv", "load_dataset", "stratified_split", "fit_standardization",
             "apply_standardization", "dataset_csv_text", "save_dataset"),
    "embed": ("build_projection_basis", "embed_log_likelihoods"),
    "coreset": ("giga_construct", "random_construct", "materialize", "aggregate"),
    "inference": ("fit_map", "hmc_sample", "accuracy", "svm_train", "svm_accuracy",
                  "save_posterior"),
    "stream": ("run_stream",),
    "experiments": ("run_offline", "run_stream_experiment"),
}
# Wrapped in every round: compress_s and the capture's row accounting need them.
PROBED = {
    "data": ("ingest_csv",),
    "embed": ("build_projection_basis", "embed_log_likelihoods"),
    "coreset": ("giga_construct",),
}
COMPRESS = ("embed.build_projection_basis", "embed.embed_log_likelihoods",
            "coreset.giga_construct")


def _model_kind(model) -> str:
    """full: unit weights; random: one repeated weight; coreset: GIGA weights."""
    w = model.weights
    if np.all(w == 1.0):
        return "full"
    return "random" if np.all(w == w[0]) else "coreset"


# What a span keeps of its call. Nothing else is kept, so that tracing
# does not hold large arrays (an embedding is n x 500) alive.
_KEEP = {
    "data.ingest_csv": lambda args, result: (result[0].n, result[1]),
    "coreset.giga_construct": lambda args, result: result,
    "inference.hmc_sample": lambda args, result: (args[0].n, _model_kind(args[0]), result),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "grads", "kept")

    def __init__(self, name: str, start: float, parent: int, grads: int):
        self.name, self.start, self.end, self.parent = name, start, start, parent
        self.grads, self.kept = grads, None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the functions it is installed on."""

    def __init__(self):
        self.spans: list[Span] = []
        self.grads = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        keep = _KEEP.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), parent, self.grads)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.grads = self.grads - span.grads
                self._stack.pop()
            if keep is not None:
                span.kept = keep(args, result)
            return result

        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.grads += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, modules: dict, table: dict, count_grads: bool) -> None:
        """Wrap each listed function wherever a flowcoreset module holds it."""
        targets = [(owner, name) for owner, names in table.items() for name in names]
        if count_grads:
            targets.append(("inference", "log_posterior"))
        for owner, name in targets:
            original = getattr(modules[owner], name)
            wrapper = (self._count(original) if name == "log_posterior"
                       else self._wrap(f"{owner}.{name}", original))
            for module in modules.values():
                if getattr(module, name, None) is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def seconds(self, *names: str) -> float:
        return sum(s.seconds for s in self.named(*names))



def dump_spans(spans: list[Span], path: Path) -> None:
    """Write spans as JSON lines: name, start, end, parent index in its round."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for s in spans:
            handle.write(json.dumps([s.name, s.start, s.end, s.parent]) + "\n")
