"""Per-layer timing from outside the program.

A :class:`LayerTracer` replaces public functions of the simulator with
timing wrappers for the duration of a ``with`` block and puts the
originals back on exit; nothing under ``src/`` is edited.  Wrappers sit
on the class (or module) attribute, which also works for the
``__slots__`` classes of the NoC hot path, so they must be installed
before the objects that call them are built.

Two kinds of record are kept in memory and written out only when the run
ends:

* per-flit-frequency calls are aggregated per (parent, function): call
  count, inclusive time, self time (inclusive minus the time spent in
  wrapped children), useful returns and child-call counts;
* span-level calls (simulation phases, artifact builds, the sweep) and
  control epochs are kept individually, each with its parent span.

The wrapper's own cost is measured by :func:`measure_wrapper_cost` and
subtracted when the totals are folded (:meth:`LayerTracer.totals`), so a
parent's self time does not silently absorb its children's wrappers.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Target",
    "LayerTracer",
    "WrapperCost",
    "measure_wrapper_cost",
    "CLOSED_LOOP_TARGETS",
    "HARNESS_TARGETS",
]


@dataclass(frozen=True)
class Target:
    """One wrapped function.

    ``owner`` is ``"module"`` or ``"module:Class"``: the object whose
    attribute is replaced, which for a function imported by name is the
    module that calls it.  ``layer`` names the module that defines the
    function and, with ``attr``, forms the metric prefix.
    """

    layer: str
    owner: str
    attr: str
    #: keep every call as its own span (phase-frequency functions only)
    span: bool = False
    #: count the calls whose return value is non-empty
    useful: bool = False
    #: index of a positional argument recorded as the span's label
    label_arg: Optional[int] = None

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.attr}"

    def resolve(self) -> object:
        module_name, _, class_name = self.owner.partition(":")
        owner = importlib.import_module(module_name)
        return getattr(owner, class_name) if class_name else owner


def _t(layer: str, owner: str, *attrs: str, **flags) -> List[Target]:
    return [Target(layer, owner, attr, **flags) for attr in attrs]


#: Layers a closed-loop (single-process) run reaches.
CLOSED_LOOP_TARGETS: Tuple[Target, ...] = tuple(
    _t("noc.router", "repro.noc.router:Router",
       "step", "receive_transmissions", "receive_credit", "receive_ack")
    + _t("noc.channel", "repro.noc.channel:Channel",
         "pop_arrivals", "pop_credits", "pop_acks", useful=True)
    + _t("noc.channel", "repro.noc.channel:Channel", "send", "send_ack", "send_credit")
    + _t("noc.interface", "repro.noc.interface:NetworkInterface",
         "step_inject", "step_eject", "enqueue")
    + _t("noc.network", "repro.noc.network:Network", "cycle")
    + _t("noc.watchdog", "repro.noc.watchdog:NetworkWatchdog", "check")
    + _t("sim.simulator", "repro.sim.simulator:Simulator",
         "pretrain", "warmup", "measure_trace", span=True)
    + _t("traffic.parsec", "repro.traffic.parsec:ParsecTraceSynthesizer",
         "synthesize", span=True)
    + _t("traffic.trace", "repro.traffic.trace:TraceReplayer", "packets_for_cycle")
    + _t("traffic.synthetic", "repro.traffic.synthetic:SyntheticTraffic",
         "packets_for_cycle")
    # observe_router is imported by name into the simulator module
    + _t("core.state", "repro.sim.simulator", "observe_router")
    + _t("core.rl_policy", "repro.core.rl_policy:RLControlPolicy", "select", "learn")
    + _t("power.orion", "repro.power.orion:RouterPowerModel", "epoch_energy")
    + _t("faults.thermal", "repro.faults.thermal:ThermalGrid", "step")
    + _t("faults.injector", "repro.faults.injector:FaultInjector", "refresh")
    + _t("obs.metrics", "repro.obs.metrics:MetricRegistry", "snapshot_epoch", "ingest")
    + _t("faults.hardfaults", "repro.faults.hardfaults:HardFaultModel", "tick")
    + _t("faults.sensors", "repro.faults.sensors:SensorFaultModel", "corrupt")
    + _t("faults.softerrors", "repro.faults.softerrors:SoftErrorModel", "inject")
    + _t("core.qlearning", "repro.core.qlearning:QTableStorage", "scrub")
)

#: Harness layers of a campaign, timed in the parent process only.
HARNESS_TARGETS: Tuple[Target, ...] = tuple(
    _t("sim.campaign", "repro.sim.campaign", "ensure_artifact", span=True, label_arg=1)
    + _t("sim.sweep", "repro.sim.sweep:SweepRunner", "run", span=True)
    # imported by name into the campaign module, which is where they are called
    + _t("sim.checkpoint", "repro.sim.campaign",
         "save_policy_artifact", "read_policy_artifact_meta")
)


@dataclass(frozen=True)
class WrapperCost:
    """Per-call wrapper overhead, split at the wrapper's own clock reads.

    ``inside`` lands within the wrapped call's measured interval (and so
    in its self time); ``outside`` lands in the caller's interval (and so
    in the caller's self time).
    """

    inside: float = 0.0
    outside: float = 0.0

    @property
    def total(self) -> float:
        return self.inside + self.outside


# A call frame is a list, the cheapest mutable record to build per call:
# [key, time in wrapped children, wrapped descendant calls].
_KEY, _CHILD_TIME, _DESCENDANTS = range(3)


class LayerTracer:
    """Install timing wrappers on ``targets`` for a ``with`` block."""

    def __init__(self, targets=()) -> None:
        self.targets = tuple(targets)
        #: key -> parent key -> [calls, incl, self, useful, descendants]
        self.calls: Dict[str, Dict[str, List[float]]] = {}
        #: individually kept spans: id, name, label, start, end, parent
        self.spans: List[Dict[str, object]] = []
        self._stack: List[list] = [["<root>", 0.0, 0]]
        self._span_stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            for target in self.targets:
                owner = target.resolve()
                original = owner.__dict__[target.attr]
                setattr(owner, target.attr, self.wrap(target, original))
                self._installed.append((owner, target.attr, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        """Put every original function back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def wrap(self, target: Target, fn):
        """The timing wrapper for one function (public for calibration)."""
        timed = self._wrap_calls(target, fn)
        if not target.span:
            return timed
        spans = self.spans
        span_stack = self._span_stack
        clock = time.perf_counter
        origin = self._origin
        label_arg = target.label_arg

        def spanned(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": target.key,
                "label": str(args[label_arg]) if label_arg is not None else None,
                "parent": span_stack[-1] if span_stack else None,
            }
            spans.append(span)
            span_stack.append(span["id"])
            span["start"] = clock() - origin
            try:
                return timed(*args, **kwargs)
            finally:
                span["end"] = clock() - origin
                span_stack.pop()

        spanned.__wrapped__ = fn
        return spanned

    def _wrap_calls(self, target: Target, fn):
        key = target.key
        by_parent = self.calls.setdefault(key, {})
        stack = self._stack
        clock = time.perf_counter
        useful = target.useful

        def wrapper(*args, **kwargs):
            frame = [key, 0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                rec = by_parent.get(parent[_KEY])
                if rec is None:
                    rec = by_parent[parent[_KEY]] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[_CHILD_TIME]
                rec[4] += frame[_DESCENDANTS]
                parent[_CHILD_TIME] += dt
                parent[_DESCENDANTS] += 1 + frame[_DESCENDANTS]
            if useful and result:
                rec[3] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (a control epoch) under the
        innermost open span."""
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "label": None,
                "parent": self._span_stack[-1] if self._span_stack else None,
                "start": start - self._origin,
                "end": end - self._origin,
            }
        )

    # ------------------------------------------------------------------
    def totals(self, cost: WrapperCost = WrapperCost()) -> Dict[str, Dict[str, float]]:
        """Per-function totals over all parents, net of wrapper cost.

        ``self_s`` drops the inside cost of each call and the outside
        cost of each direct child call; ``incl_s`` drops the inside cost
        of each call and the full cost of every wrapped descendant.
        """
        children: Dict[str, int] = {}
        for by_parent in self.calls.values():
            for parent, rec in by_parent.items():
                children[parent] = children.get(parent, 0) + rec[0]
        out = {}
        for key, by_parent in self.calls.items():
            calls = sum(rec[0] for rec in by_parent.values())
            incl = sum(rec[1] for rec in by_parent.values())
            self_s = sum(rec[2] for rec in by_parent.values())
            useful = sum(rec[3] for rec in by_parent.values())
            descendants = sum(rec[4] for rec in by_parent.values())
            out[key] = {
                "calls": calls,
                "useful": useful,
                "incl_s": max(0.0, incl - calls * cost.inside - descendants * cost.total),
                "self_s": max(
                    0.0, self_s - calls * cost.inside - children.get(key, 0) * cost.outside
                ),
                "raw_incl_s": incl,
                "raw_self_s": self_s,
            }
        return out

    def edges(self) -> List[Dict[str, object]]:
        """The per-parent aggregate, raw (wrapper cost included)."""
        return [
            {
                "parent": parent,
                "function": key,
                "calls": rec[0],
                "incl_s": rec[1],
                "self_s": rec[2],
            }
            for key, by_parent in sorted(self.calls.items())
            for parent, rec in sorted(by_parent.items())
        ]


class _Probe:
    def noop(self):
        return None


def measure_wrapper_cost(calls: int = 50_000, repeats: int = 5) -> WrapperCost:
    """Calibrate the wrapper on a no-op method (median of ``repeats``).

    inside  = recorded time per wrapped call - bare call cost
    outside = (wrapped loop - bare loop) per call - inside
    """
    probe = _Probe()
    bare_noop = _Probe.noop
    rng = range(calls)
    clock = time.perf_counter
    insides, outsides = [], []
    for _ in range(repeats):
        t0 = clock()
        for _ in rng:
            pass
        loop = clock() - t0
        t0 = clock()
        for _ in rng:
            probe.noop()
        bare = clock() - t0
        tracer = LayerTracer()
        _Probe.noop = tracer.wrap(Target("calibration", __name__, "noop"), bare_noop)
        try:
            t0 = clock()
            for _ in rng:
                probe.noop()
            wrapped = clock() - t0
        finally:
            _Probe.noop = bare_noop
        recorded = tracer.calls["calibration.noop"]["<root>"][1]
        inside = max(0.0, (recorded - (bare - loop)) / calls)
        insides.append(inside)
        outsides.append(max(0.0, (wrapped - bare) / calls - inside))
    return WrapperCost(statistics.median(insides), statistics.median(outsides))
