"""Span tracing installed from outside the library.

The library calls its own functions through per-module imports
(``weakner.bootstrap`` calls its own ``train`` binding, ``weakner.cli`` its
own ``iterative_train``), so a function is wrapped at every module binding
that refers to it. Methods are wrapped once, on their class. Nothing is
patched while tracing is off, so untraced passes run the library unchanged.

A span is (name, start, end, parent id). Calls are sequential on one
thread, so the time a span's children cover is the sum of their durations
and self time is duration minus that sum.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter

from weakner import bootstrap, cli, corpus, metrics, refset, tagger
from weakner.corpus import Provenance


def _train_updates(tracer, args, kwargs, result):
    call = inspect.signature(tagger.train).bind(*args, **kwargs).arguments
    return {"tagger.train.updates": len(call["data"]) * call["cfg"].epochs}


def _match_count(tracer, args, kwargs, result):
    tracer.matches = result
    return {"refset.matches": len(result)}


def _pinned(tracer, args, kwargs, result):
    n = sum(int((lab.provenance == Provenance.REFERENCE).sum()) for lab in result.labels)
    return {"bootstrap.pinned_tokens": n}


# Module-level functions: (span name, function, extra counts from the call).
FUNCTIONS = (
    ("cli.main", cli.main, None),
    ("corpus.read_conll", corpus.read_conll, None),
    ("refset.find_matches", refset.find_matches, _match_count),
    ("bootstrap.iterative_train", bootstrap.iterative_train, None),
    ("bootstrap.relabel", bootstrap.relabel, _pinned),
    ("bootstrap.finalize", bootstrap.finalize, None),
    ("tagger.train", tagger.train, _train_updates),
    ("tagger.predict_dataset_hard", tagger.predict_dataset_hard, None),
    ("metrics.evaluate_model", metrics.evaluate_model, None),
)

# Methods: (span name, class, attribute).
METHODS = (
    ("tagger.features", tagger.FeatureExtractor, "features"),
    ("tagger.emissions", tagger.TaggerModel, "emissions"),
    ("tagger.predict_soft", tagger.TaggerModel, "predict_soft"),
    ("tagger.predict_hard", tagger.TaggerModel, "predict_hard"),
    ("tagger.save", tagger.TaggerModel, "save"),
    ("tagger.load", tagger.TaggerModel, "load"),
)


class Tracer:
    """In-memory span and count recorder for one pass."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent id); parent -1 = top level
        self.counts = Counter()  # calls per span name plus per-call extras
        self.matches = []        # what the last find_matches call returned
        self._stack = []

    def wrap(self, name, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent)
            self.counts[name + ".calls"] += 1
            if extra is not None:
                self.counts.update(extra(self, args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapped binding for the duration of the block."""
        saved = []
        try:
            for name, fn, extra in FUNCTIONS:
                wrapper = self.wrap(name, fn, extra)
                for module in _weakner_modules():
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            saved.append((module, attr, value))
                            setattr(module, attr, wrapper)
            for name, cls, attr in METHODS:
                original = vars(cls)[attr]
                saved.append((cls, attr, original))
                if isinstance(original, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, original.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- reductions ----------------------------------------------------------

    def _child_seconds(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def durations(self):
        """Total and self seconds per span name."""
        total, own = Counter(), Counter()
        for (name, start, end, _), child in zip(self.spans, self._child_seconds()):
            total[name] += end - start
            own[name] += end - start - child
        return total, own

    def metrics(self) -> dict:
        """Flat per-layer numbers of this pass: ``<span>.s`` (total seconds),
        ``<span>.self_s``, ``<span>.calls`` and the per-call extras."""
        total, own = self.durations()
        out = dict(self.counts)
        for name in total:
            out[name + ".s"] = total[name]
            out[name + ".self_s"] = own[name]
        updates = self.counts["tagger.train.updates"]
        if updates:
            out["tagger.train.us_per_update"] = 1e6 * own["tagger.train"] / updates
        return out

    def check_nesting(self):
        """Spans whose children cover more time than the span itself."""
        return [
            span for span, child in zip(self.spans, self._child_seconds())
            if child > span[2] - span[1]
        ]

    def top_level_seconds(self):
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self):
        """Spans as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p}
            for n, s, e, p in self.spans
        ]


def _weakner_modules():
    return [m for k, m in sys.modules.items() if k == "weakner" or k.startswith("weakner.")]
