"""Spans around tugame's public functions, recorded from outside the library.

`Tracer.install` wraps each public function of each tugame module and
rebinds every name that refers to it in every loaded tugame module (for
example both `tugame.bounds.minimal_rights` and `tugame.tau.minimal_rights`),
so nested library calls produce nested spans. Construction is traced by
wrapping the game base class's `__init__`. No source file is changed, and
`uninstall` restores every binding. Spans stay in memory as
[name, start, end, parent index, value] and are written out at the end
of the traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from contextlib import contextmanager

WRAPPED = {
    "cli": ("run",),
    "gamefile": ("parse_game", "serialize_game"),
    "bounds": ("utopia_payoffs", "remainder", "minimal_rights"),
    "properties": (
        "classify",
        "is_essential",
        "is_inessential",
        "is_superadditive",
        "is_weakly_superadditive",
        "is_weakly_constant_sum",
        "is_quasibalanced",
    ),
    "gately": ("propensity_to_disrupt", "equal_propensity", "gately_point"),
    "tau": ("tau_value",),
    "costs": ("separable_costs", "nonseparable_cost", "aca_allocation", "savings_game"),
    "transforms": ("scale_shift", "zero_normalize", "zero_one_normalize"),
    "oracle": ("grid_minmax_propensity", "recompute_by_definition"),
}
CONSTRUCT = "game.construct"


def _span_value(name, args):
    """A count recorded with the span: input bytes of a parse, grid points
    C(resolution - 1, n - 1) of a grid search."""
    if name == "gamefile.parse_game":
        return len(args[0])
    if name == "oracle.grid_minmax_propensity":
        return math.comb(args[1] - 1, args[0].n - 1)
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, _span_value(name, args)]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name, value=None):
        """A span opened by the benchmark itself, such as one op."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, value]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def install(self):
        sources = {short: importlib.import_module(f"tugame.{short}") for short in WRAPPED}
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "tugame"]
        for short, names in WRAPPED.items():
            source = sources[short]
            for name in names:
                original = getattr(source, name)
                traced = self._wrap(f"{short}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._restore.append((module, attr, original))
        base = importlib.import_module("tugame.game")._CharacteristicGame
        self._restore.append((base, "__init__", base.__init__))
        base.__init__ = self._wrap(CONSTRUCT, base.__init__)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def adopt(self, child_spans):
        """Append spans recorded in another process under the open span."""
        parent = self._stack[-1]
        offset = len(self.spans)
        for name, start, end, up, value in child_spans:
            self.spans.append([name, start, end, parent if up < 0 else up + offset, value])

    def dump(self, path, extra=None):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **(extra or {})}, handle)


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds (inclusive
    minus the time its direct children cover) and the summed span value."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for index, (name, start, end, parent, value) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "value": 0})
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child_time[index]
        if isinstance(value, int):
            row["value"] += value
    return out


def module_self_times(spans) -> dict:
    """Self seconds per tugame module (the span name up to its first dot)."""
    out: dict = {}
    for name, row in summarize(spans).items():
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + row["self"]
    return out


def count_under(spans, name: str, ancestor: str) -> dict:
    """Calls of `name` below an `ancestor` span, and `ancestor` calls, per
    label of the enclosing "op" span."""
    def chain(index):
        while index >= 0:
            yield spans[index]
            index = spans[index][3]

    out: dict = {}
    for index, span in enumerate(spans):
        if span[0] not in (name, ancestor):
            continue
        above = list(chain(span[3]))
        label = next((s[4] for s in above if s[0] == "op"), None)
        row = out.setdefault(label, [0, 0])
        if span[0] == ancestor:
            row[1] += 1
        elif any(s[0] == ancestor for s in above):
            row[0] += 1
    return out
