"""A fixed reference task that measures how fast the host runs right now.

The benchmark's host shares its cores with other tenants, and its speed
swings by up to 2x in phases that can outlast a run. ``reference_seconds``
times a fixed piece of work of the same mix as the library's kernels
(string feature extraction into dicts, and log-space forward-backward over
small numpy arrays) without calling the library. Its inputs never change,
so a change to the library cannot move it: only the host's speed does.

``REFERENCE_S`` fixes the host speed the benchmark's normalised times refer
to: about the reference task's time on the 2-core Intel Xeon VM the
baseline was measured on, in its faster phases.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.05

_RNG = np.random.default_rng(0)
_WORDS = ["".join(chr(97 + c) for c in _RNG.integers(0, 26, int(n)))
          for n in _RNG.integers(2, 12, 400)]
_SENTENCES = [[_WORDS[j] for j in _RNG.integers(0, len(_WORDS), int(n))]
              for n in _RNG.integers(6, 40, 150)]
_EMISSIONS = [_RNG.normal(size=(len(s), 3)) for s in _SENTENCES]
_TRANSITIONS = _RNG.normal(size=(3, 3))


def _logsumexp(a, axis):
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _features(words, index):
    for i, w in enumerate(words):
        for f in (f"w={w}", f"lw={w.lower()}", f"pre2={w[:2]}", f"suf2={w[-2:]}",
                  f"w[-1]={words[i - 1] if i else '<s>'}"):
            index[f] = index.get(f, 0) + 1


def _forward_backward(E, T):
    n, k = E.shape
    alpha = np.empty((n, k))
    beta = np.zeros((n, k))
    alpha[0] = E[0]
    for i in range(1, n):
        alpha[i] = E[i] + _logsumexp(alpha[i - 1][:, None] + T, axis=0)
    for i in range(n - 2, -1, -1):
        beta[i] = _logsumexp(T + (E[i + 1] + beta[i + 1])[None, :], axis=1)
    return float(_logsumexp(alpha[-1], axis=0))


def reference_work() -> float:
    index: dict = {}
    total = 0.0
    for words, E in zip(_SENTENCES, _EMISSIONS):
        _features(words, index)
        total += _forward_backward(E, _TRANSITIONS)
    return total + len(index)


def reference_seconds() -> float:
    """Seconds the fixed reference task takes now."""
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t
