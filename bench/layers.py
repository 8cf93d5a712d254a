"""Traced run: time calls into each manetguard module from outside the package.

`Tracer.install()` replaces every entry point named in `ENTRY_POINTS` with a
wrapper that records a span (name, start, end, parent span) and keeps a stack
so each span's self time excludes the wrapped calls it makes. `restore()`
puts every original back, and `verify_restored()` checks by identity that it
did. Spans are folded into per-name and per-(parent, name) totals as they
close, so memory stays flat however many calls a run makes.

The layer metrics in `LAYER_METRICS` are computed from those totals.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from manetguard.envelope import ACCEPT

# Every wrapped entry point: (span name, "module:attribute path", note).
# A name is wrapped at each place it is bound, because modules import
# functions by value: node.py holds its own `verify`, `sign`, ... and
# trustproto.py imports `sign` from envelope at call time.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("engine.run_until", "manetguard.engine:EventQueue.run_until", "events"),
    ("engine.schedule", "manetguard.engine:EventQueue.schedule", None),
    ("engine.snapshot", "manetguard.engine:ConnectivityMap.snapshot_at", None),
    ("netsim.route", "manetguard.simulation:shortest_path", "miss"),
    ("netsim.enqueue", "manetguard.netsim:NodeNetState.enqueue", "refused"),
    ("watchdog.watch_sent", "manetguard.watchdog:Watchdog.watch_sent", None),
    ("watchdog.watch_overheard", "manetguard.watchdog:Watchdog.watch_overheard", None),
    ("watchdog.on_overheard_forward", "manetguard.watchdog:Watchdog.on_overheard_forward", None),
    ("watchdog.record_direct_violation",
     "manetguard.watchdog:Watchdog.record_direct_violation", None),
    ("watchdog.expire", "manetguard.watchdog:Watchdog.expire", None),
    ("watchdog.tick", "manetguard.watchdog:Watchdog.tick", None),
    ("node.on_overhear", "manetguard.node:Node.on_overhear", None),
    ("node.on_transmitted", "manetguard.node:Node.on_transmitted", None),
    ("node.on_received", "manetguard.node:Node.on_received", None),
    ("node.window_tick", "manetguard.node:Node.window_tick", None),
    ("node.exchange_tick", "manetguard.node:Node.exchange_tick", None),
    ("node.control", "manetguard.node:Node.handle_control", "kind"),
    ("node.receive_certificate", "manetguard.node:Node.receive_certificate", None),
    ("envelope.encode", "manetguard.node:canonical_bytes", "bytes"),
    ("envelope.encode", "manetguard.trustproto:canonical_bytes", "bytes"),
    ("envelope.sign", "manetguard.node:sign", None),
    ("envelope.sign", "manetguard.envelope:sign", None),
    ("envelope.verify", "manetguard.node:verify", "accept"),
    ("envelope.verify", "manetguard.trustproto:verify", "accept"),
    ("trustproto.cert_verify", "manetguard.node:verify_certificate", "accept"),
    ("trustproto.assemble", "manetguard.node:assemble_certificate", None),
    ("trustproto.make_response", "manetguard.node:make_response", None),
    ("trustproto.make_vote", "manetguard.node:make_vote", None),
    ("trustproto.tally", "manetguard.node:tally_votes", None),
    ("trustproto.group_trust", "manetguard.trustproto:compute_group_trust", None),
    ("simulation.run", "manetguard.simulation:Simulation.run", None),
    ("simulation.send_control", "manetguard.simulation:Simulation.send_control", None),
    ("simulation.broadcast_control", "manetguard.simulation:Simulation.broadcast_control", None),
    ("simulation.flood_control", "manetguard.simulation:Simulation.flood_control", None),
    ("experiment.run_matrix", "manetguard.experiment:run_matrix", "runs"),
    ("scenario.validate", "manetguard.scenario:ScenarioConfig.validate", None),
)

WATCHDOG_SPANS = tuple(n for n, _, _ in ENTRY_POINTS if n.startswith("watchdog."))
OVERHEAR_SPANS = ("node.on_overhear", "node.on_transmitted", "node.on_received")
CTRL_SEND_SPANS = ("simulation.send_control", "simulation.broadcast_control",
                   "simulation.flood_control")
SUMMED_GROUPS = (WATCHDOG_SPANS, OVERHEAR_SPANS, CTRL_SEND_SPANS)
CONTROL_KINDS = ("certificate", "certificate_offer", "alarm", "verdict", "vote")


class SpanStats:
    """Totals of every closed span with one name."""

    __slots__ = ("calls", "total_s", "self_s", "tally", "kinds")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.tally = 0          # what the entry point's note counts
        self.kinds: Counter = Counter()


def _note(kind: Optional[str], stats: SpanStats, args, result) -> None:
    if kind is None:
        return
    if kind == "events":
        stats.tally += result
    elif kind == "miss":
        stats.tally += result is None
    elif kind == "refused":
        stats.tally += result is False
    elif kind == "bytes":
        stats.tally += len(result)
    elif kind == "accept":
        stats.tally += result == ACCEPT
    elif kind == "runs":
        stats.tally += len(result.runs)
    elif kind == "kind":
        body = args[1] if len(args) > 1 else None
        label = body.get("t") if isinstance(body, dict) else None
        stats.kinds[label if label in CONTROL_KINDS else "other"] += 1


def _resolve(target: str):
    """Return (owner, attribute) for "module:Class.attr" or "module:attr"."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps `entry_points` while installed and folds their spans into totals."""

    def __init__(self, entry_points: Sequence[Tuple[str, str, Optional[str]]] = ENTRY_POINTS):
        self.entry_points = tuple(entry_points)
        self.stats: Dict[str, SpanStats] = {}
        self.edges: Counter = Counter()        # (parent span, span) -> calls
        self.missing: List[str] = []
        self._patched: List[Tuple[object, str, Callable]] = []
        self._stack: List[list] = []

    # -- install / restore ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for name, target, note in self.entry_points:
            try:
                owner, attr = _resolve(target)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            stats = self.stats.setdefault(name, SpanStats())
            setattr(owner, attr, self._wrap(name, original, stats, note))
            self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def verify_restored(self) -> List[str]:
        """Bindings that do not hold their original object (empty when restored)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner).get(attr) is not original
        ]

    def installed(self, name: str) -> bool:
        return name in self.stats

    # -- spans --------------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, stats: SpanStats, note: Optional[str]) -> Callable:
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]           # [span name, time covered by child spans]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                edges[(parent[0] if parent else None, name)] += 1
            _note(note, stats, args, result)
            return result

        return traced

    # -- reading --------------------------------------------------------------------

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def span_lines(self) -> List[str]:
        """One line per span name, heaviest self time first."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1].self_s)
        return [
            f"  span {name:34s} calls={s.calls:<9d} total_s={s.total_s:.4f} self_s={s.self_s:.4f}"
            for name, s in rows
        ]


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when there was nothing to divide (no attempts)."""
    return num / den if den else 0.0


def _sum(t: Tracer, names, field: str) -> float:
    return sum(getattr(t.get(n), field) for n in names)


# (metric name, unit, spans it reads, value from the tracer and the run context).
# The run context supplies `control_messages`, the simulated control deliveries
# summed over the traced runs, and `overhead_s`, the tracing overhead.
LAYER_METRICS: Tuple[Tuple[str, str, Tuple[str, ...], Callable], ...] = (
    ("engine.events", "count", ("engine.run_until",),
     lambda t, c: t.get("engine.run_until").tally),
    ("engine.events_per_s", "1/s", ("engine.run_until",),
     lambda t, c: _ratio(t.get("engine.run_until").tally, t.get("engine.run_until").total_s)),
    ("engine.schedule_calls", "count", ("engine.schedule",),
     lambda t, c: t.get("engine.schedule").calls),
    ("engine.schedule_s", "s", ("engine.schedule",),
     lambda t, c: t.get("engine.schedule").total_s),
    ("engine.dispatch_self_s", "s", ("engine.run_until",),
     lambda t, c: t.get("engine.run_until").self_s),
    ("engine.snapshot_builds", "count", ("engine.snapshot",),
     lambda t, c: t.get("engine.snapshot").calls),
    ("engine.snapshot_s", "s", ("engine.snapshot",),
     lambda t, c: t.get("engine.snapshot").total_s),
    ("netsim.route_calls", "count", ("netsim.route",),
     lambda t, c: t.get("netsim.route").calls),
    ("netsim.route_s", "s", ("netsim.route",),
     lambda t, c: t.get("netsim.route").total_s),
    ("netsim.route_miss_ratio", "ratio", ("netsim.route",),
     lambda t, c: _ratio(t.get("netsim.route").tally, t.get("netsim.route").calls)),
    ("netsim.enqueue_calls", "count", ("netsim.enqueue",),
     lambda t, c: t.get("netsim.enqueue").calls),
    ("netsim.enqueue_drop_ratio", "ratio", ("netsim.enqueue",),
     lambda t, c: _ratio(t.get("netsim.enqueue").tally, t.get("netsim.enqueue").calls)),
    ("watchdog.calls", "count", WATCHDOG_SPANS,
     lambda t, c: _sum(t, WATCHDOG_SPANS, "calls")),
    ("watchdog.s", "s", WATCHDOG_SPANS,
     lambda t, c: _sum(t, WATCHDOG_SPANS, "self_s")),
    ("watchdog.tick_s", "s", ("watchdog.tick",),
     lambda t, c: t.get("watchdog.tick").total_s),
    ("node.overhear_calls", "count", OVERHEAR_SPANS,
     lambda t, c: _sum(t, OVERHEAR_SPANS, "calls")),
    ("node.overhear_self_s", "s", OVERHEAR_SPANS,
     lambda t, c: _sum(t, OVERHEAR_SPANS, "self_s")),
    ("node.window_tick_s", "s", ("node.window_tick",),
     lambda t, c: t.get("node.window_tick").total_s),
    ("node.exchange_tick_s", "s", ("node.exchange_tick",),
     lambda t, c: t.get("node.exchange_tick").total_s),
    *(
        (f"node.control_calls.{kind}", "count", ("node.control",),
         lambda t, c, kind=kind: t.get("node.control").kinds[kind])
        for kind in CONTROL_KINDS + ("other",)
    ),
    ("node.control_self_s", "s", ("node.control",),
     lambda t, c: t.get("node.control").self_s),
    ("node.cert_receive_calls", "count", ("node.receive_certificate",),
     lambda t, c: t.get("node.receive_certificate").calls),
    ("node.cert_novel_ratio", "ratio", ("node.receive_certificate", "trustproto.cert_verify"),
     lambda t, c: _ratio(t.edges[("node.receive_certificate", "trustproto.cert_verify")],
                         t.get("node.receive_certificate").calls)),
    ("envelope.encode_calls", "count", ("envelope.encode",),
     lambda t, c: t.get("envelope.encode").calls),
    ("envelope.encode_s", "s", ("envelope.encode",),
     lambda t, c: t.get("envelope.encode").total_s),
    ("envelope.encode_bytes", "bytes", ("envelope.encode",),
     lambda t, c: t.get("envelope.encode").tally),
    ("envelope.sign_calls", "count", ("envelope.sign",),
     lambda t, c: t.get("envelope.sign").calls),
    ("envelope.sign_s", "s", ("envelope.sign",),
     lambda t, c: t.get("envelope.sign").total_s),
    ("envelope.verify_calls", "count", ("envelope.verify",),
     lambda t, c: t.get("envelope.verify").calls),
    ("envelope.verify_s", "s", ("envelope.verify",),
     lambda t, c: t.get("envelope.verify").total_s),
    ("envelope.verify_accept_ratio", "ratio", ("envelope.verify",),
     lambda t, c: _ratio(t.get("envelope.verify").tally, t.get("envelope.verify").calls)),
    ("trustproto.cert_verify_calls", "count", ("trustproto.cert_verify",),
     lambda t, c: t.get("trustproto.cert_verify").calls),
    ("trustproto.cert_verify_self_s", "s", ("trustproto.cert_verify",),
     lambda t, c: t.get("trustproto.cert_verify").self_s),
    ("trustproto.cert_accept_ratio", "ratio", ("trustproto.cert_verify",),
     lambda t, c: _ratio(t.get("trustproto.cert_verify").tally,
                         t.get("trustproto.cert_verify").calls)),
    ("trustproto.assemble_calls", "count", ("trustproto.assemble",),
     lambda t, c: t.get("trustproto.assemble").calls),
    ("trustproto.group_trust_s", "s", ("trustproto.group_trust",),
     lambda t, c: t.get("trustproto.group_trust").total_s),
    ("trustproto.tally_calls", "count", ("trustproto.tally",),
     lambda t, c: t.get("trustproto.tally").calls),
    ("simulation.ctrl_send_calls", "count", CTRL_SEND_SPANS,
     lambda t, c: _sum(t, CTRL_SEND_SPANS, "calls")),
    ("simulation.ctrl_fanout", "ratio", CTRL_SEND_SPANS,
     lambda t, c: _ratio(c["control_messages"], _sum(t, CTRL_SEND_SPANS, "calls"))),
    ("simulation.reduce_s", "s", ("simulation.run", "engine.run_until"),
     lambda t, c: t.get("simulation.run").total_s - t.get("engine.run_until").total_s),
    ("experiment.runs", "count", ("experiment.run_matrix",),
     lambda t, c: t.get("experiment.run_matrix").tally),
    ("experiment.matrix_s", "s", ("experiment.run_matrix",),
     lambda t, c: t.get("experiment.run_matrix").total_s),
    ("scenario.validate_s", "s", ("scenario.validate",),
     lambda t, c: t.get("scenario.validate").total_s),
    ("bench.tracing_overhead_s", "s", (), lambda t, c: c["overhead_s"]),
)


def layer_metrics(tracer: Tracer, context: Dict[str, float]) -> Tuple[Dict[str, dict], List[str]]:
    """Per-layer metrics, and the names left out because a span they read is
    missing from the package. A metric that sums a group of spans needs only
    one of them."""
    metrics: Dict[str, dict] = {}
    unavailable: List[str] = []
    for name, unit, spans, value in LAYER_METRICS:
        found = [tracer.installed(s) for s in spans]
        if not (any(found) if spans in SUMMED_GROUPS else all(found)):
            unavailable.append(name)
            continue
        metrics[name] = {"value": value(tracer, context), "unit": unit}
    return metrics, unavailable
