"""Inter-router channels: data wires plus sideband ACK/credit wires.

A :class:`Channel` is the directed link the paper calls "channel i"
(Section III).  It carries:

* data transmissions (flits, possibly ECC-protected, possibly mode-2
  duplicates), delivered after ``latency`` cycles;
* the sideband acknowledgement wire back to the sender (ACK/NACK flits of
  the ARQ protocol, Fig. 1(c)), each an int token: a plain ACK is its
  sequence number, a NACK its :func:`~repro.coding.arq.nack_token`;
* the credit-return wire of the VC flow control.

Both sideband lists are time-ordered: every sender schedules a credit or
ACK/NACK for the next cycle (``now + 1``), so entries are appended in
non-decreasing delivery order and, once the last entry is due, so is the
whole list.  The fast cycle kernel relies on this to take a due sideband
list whole instead of filtering it.  Data transmissions carry no such
order (ECC, mode-3 stalls and mode-2 duplicates shift arrival times), so
:meth:`Channel.pop_arrivals` filters and sorts.

Error injection happens at *delivery* time through the channel's
:attr:`error_model`, which the fault substrate refreshes every control
epoch with the current temperature-dependent probabilities
(:mod:`repro.faults.varius`).  The channel itself is agnostic about where
those probabilities come from.
"""

from __future__ import annotations

import math
import operator
from typing import List, Optional, Set, Tuple

from repro.noc.packet import Flit
from repro.noc.topology import ChannelSpec

__all__ = ["Transmission", "ChannelErrorModel", "Channel"]

#: sentinel gap meaning "no error will ever fire" (probability <= 0);
#: distinct from ``None`` which means "gap not drawn yet"
_GAP_NEVER = -1

#: gaps beyond this are indistinguishable from "never" on any run length
#: and guard the float -> int conversion against overflow
_GAP_MAX = float(2**62)

#: stable sort key for due transmissions (C-level attrgetter beats a
#: lambda in the per-cycle arrival pop)
_arrive_key = operator.attrgetter("arrive_at")


class Transmission:
    """One flit in flight on a channel."""

    __slots__ = (
        "flit",
        "seq",
        "vc",
        "protected",
        "relaxed",
        "duplicate",
        "paired",
        "arrive_at",
    )

    def __init__(
        self,
        flit: Flit,
        seq: Optional[int],
        vc: int,
        protected: bool,
        relaxed: bool,
        duplicate: bool,
        arrive_at: int,
        paired: bool = False,
    ) -> None:
        self.flit = flit
        #: ARQ sequence number (None on unprotected channels)
        self.seq = seq
        #: downstream input VC the flit was allocated to
        self.vc = vc
        #: whether the -Link (ECC encoder/decoder pair) is enabled
        self.protected = protected
        #: whether mode-3 timing relaxation applies to this transfer
        self.relaxed = relaxed
        #: whether this is a mode-2 pre-retransmission copy
        self.duplicate = duplicate
        #: whether a pre-retransmission copy follows this transmission.
        #: Duplicates carry no credit of their own, so the credit-refund
        #: rules differ for each member of the pair (see Router).
        self.paired = paired
        self.arrive_at = arrive_at


class ChannelErrorModel:
    """Per-channel timing-error sampler with geometric skip-sampling.

    ``event_probability`` is the chance a flit transfer suffers a timing
    error event; ``severity`` gives the distribution of the number of bit
    errors per event ``(P[1 bit], P[2 bits], P[3+ bits])``.  Mode-3
    relaxed transfers scale the event probability by ``relax_factor``
    (near zero — the paper says timing relaxation brings the error
    probability "near to zero").

    Instead of one Bernoulli draw per protected flit, the sampler draws
    the *gap* to the next error event once — the number of clean
    transfers before the faulty one, geometrically distributed as
    ``floor(ln(U)/ln(1-p))`` — and counts flits down to it.  Relaxed and
    unrelaxed transfers see different probabilities, so each stream keeps
    its own countdown.  The geometric distribution is memoryless, so a
    countdown stays valid as long as its probability is unchanged; the
    property setters invalidate it only on an actual change, and the next
    ``sample_error_bits`` call lazily redraws.  That lazy redraw is what
    keeps the RNG stream deterministic: draws happen only at flit
    arrivals, which every kernel processes in the same global order.
    """

    __slots__ = (
        "_event_probability",
        "severity",
        "_relax_factor",
        "_rng",
        "_bits",
        "_gap",
        "_gap_relaxed",
    )

    def __init__(
        self,
        rng,
        flit_bits: int,
        event_probability: float = 0.0,
        severity: Tuple[float, float, float] = (0.33, 0.47, 0.20),
        relax_factor: float = 1e-4,
    ) -> None:
        if not 0.0 <= event_probability <= 1.0:
            raise ValueError("event probability must be in [0, 1]")
        if abs(sum(severity) - 1.0) > 1e-9 or any(s < 0 for s in severity):
            raise ValueError("severity must be a probability distribution")
        self._event_probability = event_probability
        self.severity = severity
        self._relax_factor = relax_factor
        self._rng = rng
        self._bits = flit_bits
        #: clean transfers remaining before the next unrelaxed error
        #: (None = not drawn yet, _GAP_NEVER = probability is zero)
        self._gap: Optional[int] = None
        #: same countdown for the mode-3 relaxed stream
        self._gap_relaxed: Optional[int] = None

    # -- probability knobs (setters invalidate the countdowns) ---------
    @property
    def event_probability(self) -> float:
        return self._event_probability

    @event_probability.setter
    def event_probability(self, value: float) -> None:
        if value != self._event_probability:
            self._event_probability = value
            self._gap = None
            self._gap_relaxed = None

    @property
    def relax_factor(self) -> float:
        return self._relax_factor

    @relax_factor.setter
    def relax_factor(self, value: float) -> None:
        if value != self._relax_factor:
            self._relax_factor = value
            self._gap_relaxed = None

    def set_probabilities(self, event_probability: float, relax_factor: float) -> None:
        """Epoch refresh entry point used by the fault injector."""
        self.event_probability = event_probability
        self.relax_factor = relax_factor

    # ------------------------------------------------------------------
    def _draw_gap(self, p: float) -> int:
        """Clean transfers before the next error, geometrically sampled."""
        if p <= 0.0:
            return _GAP_NEVER
        u = self._rng.random()
        if p >= 1.0 or u <= 0.0:
            return 0
        # log1p keeps precision for tiny p; denormal p can still make the
        # divisor 0.0 (or the quotient overflow a double), which just means
        # the gap exceeds any simulable horizon.
        log1mp = math.log1p(-p)
        if log1mp == 0.0:
            return _GAP_NEVER
        gap = math.log(u) / log1mp
        if gap >= _GAP_MAX:
            return _GAP_NEVER
        return int(gap)

    def sample_error_bits(self, relaxed: bool) -> int:
        """Number of bit errors for one flit transfer (0 = clean)."""
        if relaxed:
            gap = self._gap_relaxed
            if gap is None:
                gap = self._draw_gap(self._event_probability * self._relax_factor)
            if gap != 0:
                self._gap_relaxed = gap if gap == _GAP_NEVER else gap - 1
                return 0
            self._gap_relaxed = self._draw_gap(
                self._event_probability * self._relax_factor
            )
        else:
            gap = self._gap
            if gap is None:
                gap = self._draw_gap(self._event_probability)
            if gap != 0:
                self._gap = gap if gap == _GAP_NEVER else gap - 1
                return 0
            self._gap = self._draw_gap(self._event_probability)
        roll = self._rng.random()
        if roll < self.severity[0]:
            return 1
        if roll < self.severity[0] + self.severity[1]:
            return 2
        return 3

    # -- pickling (checkpoints must capture the countdown state) -------
    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state) -> None:
        for name in self.__slots__:
            setattr(self, name, state[name])

    def sample_mask(self, n_errors: int) -> int:
        """Random XOR mask with ``n_errors`` distinct flipped bits."""
        mask = 0
        while bin(mask).count("1") < n_errors:
            mask |= 1 << self._rng.randrange(self._bits)
        return mask


class Channel:
    """A directed inter-router channel with its sideband wires."""

    __slots__ = (
        "spec",
        "latency",
        "error_model",
        "alive",
        "index",
        "_active",
        "_data",
        "_acks",
        "_credits",
    )

    def __init__(self, spec: ChannelSpec, latency: int, error_model: ChannelErrorModel) -> None:
        if latency < 1:
            raise ValueError("channel latency must be at least one cycle")
        self.spec = spec
        self.latency = latency
        self.error_model = error_model
        #: cleared by Network.kill_link — a dead channel swallows all
        #: traffic (data and sideband) instead of delivering it
        self.alive = True
        #: creation-order index assigned by the owning Network; the
        #: activity kernel iterates channels sorted by it so the shared
        #: RNG is consumed in the same order as a full scan
        self.index = -1
        #: Network-owned set of active channel indices; a channel outside
        #: a Network (unit tests) registers in a private set nobody reads
        self._active: Set[int] = set()
        self._data: List[Transmission] = []
        #: (deliver_cycle, ACK/NACK token) back toward the sender
        self._acks: List[Tuple[int, int]] = []
        #: (deliver_cycle, vc) credit returns toward the sender
        self._credits: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    def bind_activity(self, index: int, active: Set[int]) -> None:
        """Attach this channel to its Network's active-channel set."""
        self.index = index
        self._active = active

    @property
    def busy(self) -> bool:
        """Whether anything (data or sideband) is in flight."""
        return bool(self._data or self._acks or self._credits)

    @property
    def has_pending_data(self) -> bool:
        """Whether data transmissions are in flight."""
        return bool(self._data)

    @property
    def has_pending_acks(self) -> bool:
        """Whether sideband ACK/NACKs are in flight."""
        return bool(self._acks)

    @property
    def has_pending_credits(self) -> bool:
        """Whether sideband credit returns are in flight."""
        return bool(self._credits)

    def send(self, transmission: Transmission) -> None:
        if self.alive:
            self._data.append(transmission)
            self._active.add(self.index)

    def send_ack(self, token: int, deliver_at: int) -> None:
        if self.alive:
            self._acks.append((deliver_at, token))
            self._active.add(self.index)

    def send_credit(self, vc: int, deliver_at: int) -> None:
        if self.alive:
            self._credits.append((deliver_at, vc))
            self._active.add(self.index)

    # ------------------------------------------------------------------
    def pop_arrivals(self, now: int) -> List[Transmission]:
        """Remove and return data transmissions due at ``now``."""
        data = self._data
        if not data:
            return []
        if len(data) == 1:
            # One in-flight flit is the saturation-steady-state norm.
            if data[0].arrive_at <= now:
                due = [data[0]]
                data.clear()
                return due
            return []
        if len(data) == 2:
            # Two in flight is the norm on protected links (ECC latency,
            # mode-2 duplicates, mode-3 stalls): settle the usual "older
            # one due" and "none due" cases without the filter passes.
            first, second = data
            if second.arrive_at > now:
                if first.arrive_at > now:
                    return []
                del data[0]
                return [first]
        due = [t for t in data if t.arrive_at <= now]
        if due:
            # Everything-due is the common case (latency-1 links): skip
            # the second scan and keep the (empty) list object.
            if len(due) == len(data):
                data.clear()
            else:
                self._data = [t for t in data if t.arrive_at > now]
            if len(due) > 1:
                due.sort(key=_arrive_key)
        return due

    def pop_acks(self, now: int) -> List[int]:
        """Remove and return the ACK/NACK tokens due at ``now``."""
        acks = self._acks
        if not acks:
            return []
        if len(acks) == 1:
            if acks[0][0] <= now:
                due = [acks[0][1]]
                acks.clear()
                return due
            return []
        due = [m for t, m in acks if t <= now]
        if due:
            if len(due) == len(acks):
                acks.clear()
            else:
                self._acks = [(t, m) for t, m in acks if t > now]
        return due

    def pop_credits(self, now: int) -> List[int]:
        """Remove and return credit returns due at ``now``."""
        credits = self._credits
        if not credits:
            return []
        if len(credits) == 1:
            if credits[0][0] <= now:
                due = [credits[0][1]]
                credits.clear()
                return due
            return []
        due = [vc for t, vc in credits if t <= now]
        if due:
            if len(due) == len(credits):
                credits.clear()
            else:
                self._credits = [(t, vc) for t, vc in credits if t > now]
        return due
