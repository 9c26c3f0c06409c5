"""Span recorder for the traced benchmark run.

The recorder wraps torsflow's public functions where callers look them up
(every ``torsflow.*`` module namespace that holds the function), three
methods on their classes, and ``numpy.linalg.svd``. Each call becomes a
span with a name, start, end and parent; the recorder also keeps call
counts, inclusive and self time per name, and a few counts taken from
arguments or results. Spans stay in memory until ``write`` is called.

Only the traced run patches anything, and ``patched`` restores every
attribute on exit, so the untraced run measures the program unchanged.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

#: (module, attribute) of the wrapped public functions; the span name is
#: "<module>.<attribute>".
FUNCTIONS = (
    ("bott", "validate_model"),
    ("bott", "ensure_valid"),
    ("bott", "block_cohomology"),
    ("bott", "expand_morse"),
    ("bott", "assemble_complex"),
    ("bott", "assemble_d1"),
    ("bott", "page_two"),
    ("bott", "assemble_d2"),
    ("bott", "total_torsion"),
    ("complexes", "complex_torsion"),
    ("complexes", "map_torsion"),
    ("complexes", "cohomology_bases"),
    ("complexes", "cohomology_dims"),
    ("spectral", "filtered_pages"),
    ("linalg", "rank_nullspace"),
    ("linalg", "range_basis"),
    ("linalg", "det_modulus"),
    ("linalg", "singular_product"),
    ("cw", "twisted_cochain"),
    ("cw", "cw_torsion"),
    ("documents", "load_json"),
    ("documents", "parse_model"),
    ("cli", "main"),
)

#: (module, class, method, span name) of wrapped methods.
METHODS = (
    ("complexes", "BasedComplex", "__init__", "complexes.BasedComplex"),
    ("spectral", "FilteredComplex", "__init__", "spectral.FilteredComplex"),
    ("representation", "Representation", "evaluate", "representation.evaluate"),
)


def svd_flops(shape, full_matrices=True, compute_uv=True) -> float:
    """Floating-point operations of one complex SVD, computed from its shape.

    Golub and Van Loan's R-SVD counts for a real M x n matrix (M >= n):
    4 M^2 n + 8 M n^2 + 9 n^3 with both singular vector sets
    (4 M n^2 + 8 n^3 without full U), 4 M n^2 - 4 n^3 / 3 for the values
    only; complex arithmetic costs about four real operations per
    operation.
    """
    if len(shape) != 2:
        return 0.0
    big, n = max(shape), min(shape)
    if not compute_uv:
        real = 4 * big * n * n - 4 * n ** 3 / 3
    elif full_matrices:
        real = 4 * big * big * n + 8 * big * n * n + 9 * n ** 3
    else:
        real = 4 * big * n * n + 8 * n ** 3
    return 4.0 * real


class Recorder:
    """Spans and per-name totals for one traced pass."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._stack: list = []  # [span index, start, child time]
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        #: calls per (name of the root span, name)
        self.calls_by_root: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        root = self.spans[self._stack[0][0]][0] if self._stack else name
        start = time.perf_counter()
        self.spans.append([name, start, None, parent])
        self._stack.append([index, start, 0.0])
        try:
            yield
        finally:
            end = time.perf_counter()
            _, _, child = self._stack.pop()
            self.spans[index][2] = end
            duration = end - start
            self.calls[name] += 1
            self.calls_by_root[(root, name)] += 1
            self.inclusive[name] += duration
            self.self_time[name] += duration - child
            if self._stack:
                self._stack[-1][2] += duration

    def wrap(self, name: str, fn, observe=None):
        """fn with a span around each call; observe(args, kwargs, result)
        may add counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # counts taken from arguments and results

    def _observe_rank(self, args, kwargs, result):
        if result.ambiguous:
            self.counts["linalg.ambiguous_rank"] += 1

    def _observe_evaluate(self, args, kwargs, result):
        word = args[1] if len(args) > 1 else kwargs.get("word")
        if isinstance(word, str):
            self.counts["representation.word_letters"] += len(word.split())
        elif isinstance(word, (tuple, list)):
            self.counts["representation.word_letters"] += len(word)

    def _observe_svd(self, args, kwargs, result):
        a = args[0] if args else kwargs.get("a")
        full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
        uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
        self.counts["linalg.svd_flops"] += svd_flops(np.shape(a), full, uv)

    @contextmanager
    def patched(self, package):
        """Install the wrappers on every torsflow module, restore on exit."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        saved = []
        observers = {"linalg.rank_nullspace": self._observe_rank}
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"], attr)
            name = f"{mod_name}.{attr}"
            wrapper = self.wrap(name, original, observers.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{mod_name}"], cls_name)
            original = cls.__dict__[method]
            observe = self._observe_evaluate if method == "evaluate" else None
            saved.append((cls, method, original))
            setattr(cls, method, self.wrap(name, original, observe))
        saved.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = self.wrap("numpy.linalg.svd", np.linalg.svd, self._observe_svd)
        try:
            yield self
        finally:
            for owner, key, value in reversed(saved):
                setattr(owner, key, value)

    def write(self, path):
        """Spans as JSON: name, start and end (seconds from the first span),
        parent index (-1 for a root)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
