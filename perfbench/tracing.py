"""Span tracing of expmarket's layers from outside the package.

``from x import f`` binds ``f`` into the importing module, so a wrapper set
on ``x`` alone misses every caller that imported the name.  ``Patcher``
therefore replaces a function at every module attribute that holds it (and
a method on its class), and puts the originals back on ``uninstall``.

``Tracer`` keeps one span per wrapped call in memory: ``[name, start, end,
parent]``, where ``parent`` indexes the enclosing span (-1 at top level).
Self time is a span's duration minus the durations of its children.
A few hooks also count what the calls return (trades with nothing to
exchange, localisation hits, wire bytes, descriptor comparisons).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute) of every traced function; a dotted attribute is a method
TARGETS = [
    ("patches", "build_patch"),
    ("patches", "apply_patch"),
    ("patches", "diff"),
    ("graph", "Graph.copy"),
    ("graph", "Graph.digest"),
    ("merging", "execute_trade"),
    ("merging", "trade_merge"),
    ("merging", "commute"),
    ("localiser", "localise"),
    ("localiser", "match_patches"),
    ("world", "World.observe"),
    ("foray", "record_foray_patch"),
    ("serialize", "patch_wire_size"),
    ("market", "sample_for_query"),
    ("market", "select_partners"),
    ("market", "adjudicate"),
    ("market", "price_nodes"),
    ("market", "update_belief"),
    ("reporting", "write_run"),
    ("sim", "run_trial"),
]

# span names whose class prefix is dropped to match the layer table
SPAN_NAMES = {"graph.Graph.copy": "graph.copy", "graph.Graph.digest": "graph.digest"}

MARKET_FUNCTIONS = ("sample_for_query", "select_partners", "adjudicate",
                    "price_nodes", "update_belief")


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "expmarket" or name.startswith("expmarket."))]


class Patcher:
    """Replaces a function under every name its callers look it up by."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module: str, attr: str, make_wrapper) -> None:
        mod = sys.modules[f"expmarket.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            current = owner.__dict__[meth]
            self._set(owner, meth, make_wrapper(current))
            return
        current = getattr(mod, attr)
        wrapper = make_wrapper(current)
        for m in _package_modules():
            for name, value in list(vars(m).items()):
                if value is current:
                    self._set(m, name, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


class RepeatExchanged(Exception):
    """A repeat of a trade that had just converged its pair exchanged content."""


class OpTimer:
    """Times every trade; the cost is one clock pair per call.

    Samples are ``(kind, label, seconds, noop, start)``: ``kind`` is
    ``"trade"`` (``execute_trade``), ``label`` is set by the runner to the
    current unit's label, a trade is a no-op when both of its convergent
    patches are empty, and ``start`` is when it began on ``clock``.

    With ``repeat_every = n`` every n-th trade of a unit is followed by a
    *repeat*: the same trade again on the two repositories it returned,
    whose result is dropped.  The pair has just converged, so the repeat
    has nothing to exchange; it is timed as kind ``"repeat"``.  A program
    that makes few no-op trades of its own (the fleet makes 14-43 in a
    trial, at map sizes that vary with the seed) thus gets a no-op trade
    latency over many trades spread evenly across the trial.

    ``clock`` is the clock every trade is timed with (see speed.SpeedProbe).
    """

    def __init__(self) -> None:
        self.samples: list[tuple[str, str | None, float, bool, float]] = []
        self.label: str | None = None
        self.repeat_every = 0
        self.trades = 0  # trades of the current unit, reset by the runner
        self.clock = perf_counter
        self._patcher = Patcher()

    def install(self) -> None:
        def wrapper(fn):
            def timed(*args, **kwargs):
                t0 = self.clock()
                out = fn(*args, **kwargs)
                dt = self.clock() - t0
                self.samples.append(("trade", self.label, dt, _is_noop(out), t0))
                self.trades += 1
                if self.repeat_every and self.trades % self.repeat_every == 0:
                    self._repeat(fn, out, args[2:], kwargs)
                return out
            return timed
        self._patcher.wrap("merging", "execute_trade", wrapper)

    def uninstall(self) -> None:
        self._patcher.uninstall()

    def _repeat(self, fn, out, args, kwargs) -> None:
        # the program's match counter must not see the repeat's comparisons
        kwargs = {k: v for k, v in kwargs.items() if k != "counter"}
        t0 = self.clock()
        again = fn(out.left, out.right, *args, **kwargs)
        dt = self.clock() - t0
        if not _is_noop(again):
            raise RepeatExchanged("a repeated trade exchanged content")
        self.samples.append(("repeat", self.label, dt, True, t0))


def _is_noop(outcome) -> bool:
    return outcome.pair.for_left.is_empty() and outcome.pair.for_right.is_empty()


class Tracer:
    """Collects spans and return-value counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patcher = Patcher()

    def install(self) -> None:
        for module, attr in TARGETS:
            name = SPAN_NAMES.get(f"{module}.{attr}", f"{module}.{attr}")
            self._patcher.wrap(module, attr,
                               lambda fn, name=name: self._span_wrapper(name, fn))

    def uninstall(self) -> None:
        self._patcher.uninstall()

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def _span_wrapper(self, name: str, fn):
        call = _AROUND.get(name)
        after = _AFTER.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = call(self, fn, args, kwargs) if call else fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after:
                after(self.counts, result)
            return result

        return traced

    def layer_stats(self) -> dict[str, float]:
        """Per-span-name calls and self seconds, plus the hook counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        stats: dict[str, float] = {}
        for name in calls:
            stats[f"{name}.calls"] = calls[name]
            stats[f"{name}.self_s"] = self_s[name]
        stats.update(self.counts)
        return stats

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def _counted(tracer: Tracer, fn, args, kwargs):
    """Call a localiser function with a private match counter.

    The counter is the fourth parameter of ``localise`` and
    ``match_patches``.  The caller's counter, if any, receives the same
    total afterwards, so the program's own counts are unchanged.
    """
    from expmarket.localiser import MatchCounter

    mine = MatchCounter()
    if len(args) > 3:
        theirs = args[3]
        args = args[:3] + (mine,) + args[4:]
    else:
        theirs = kwargs.get("counter")
        kwargs = {**kwargs, "counter": mine}
    result = fn(*args, **kwargs)
    if theirs is not None:
        theirs.add(mine.ops)
    tracer.counts["localiser.match_ops"] += mine.ops
    return result


def _after_trade(counts, out) -> None:
    counts["merging.trades"] += 1
    counts["merging.noop_trades"] += _is_noop(out)
    counts["merging.nodes_in"] += out.stats.nodes_in


def _after_localise(counts, hit) -> None:
    counts["localiser.hits"] += hit is not None


def _after_wire_size(counts, size) -> None:
    counts["serialize.wire_bytes"] += size


_AROUND = {"localiser.localise": _counted, "localiser.match_patches": _counted}
_AFTER = {
    "merging.execute_trade": _after_trade,
    "localiser.localise": _after_localise,
    "serialize.patch_wire_size": _after_wire_size,
}
