"""Host time of a run: control-epoch timestamps and a host-speed probe.

The benchmark runs on shared virtual machines whose CPU speed swings by
up to 2x over seconds to minutes (another tenant on the sibling
hyperthread), which moves every host-time figure of a run together.  A
fixed pure-Python *reference kernel*, timed at every control epoch
(weighting the host's states by the simulated work done in them) and
between ops, measures how fast the host ran during the run.  ``HostClock.speed`` is the kernel's mean time over its
time on the reference host, so ``raw_seconds / speed`` is the host time
the run would have taken at reference speed.  The kernel shares no code
with the program, so a change to the program moves the normalised
figures exactly as it moves the raw ones.

The clock's ``now()`` excludes the time spent in the probe itself.
"""

from __future__ import annotations

import os
import random
import time
import weakref
from pathlib import Path
from typing import List, Optional, Tuple

from repro.obs.metrics import MetricRegistry

__all__ = ["HostClock", "ReferenceKernel", "REFERENCE_KERNEL_S"]

#: ``ReferenceKernel.run`` host time on the reference 2-core host in its
#: usual state; fixes the scale of the normalised figures.
REFERENCE_KERNEL_S = 0.0030


class _Cell:
    __slots__ = ("items", "count")

    def __init__(self) -> None:
        self.items: List[int] = []
        self.count = 0

    def push(self, value: int) -> None:
        self.items.append(value)
        self.count += 1

    def pop(self):
        return self.items.pop() if self.items else None


class _Slot:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class ReferenceKernel:
    """Fixed interpreter work shaped like the simulator's.

    Half of it is cache-resident (slot attributes, method calls, list
    queues, a small dict), half walks a few-MB pool in a scattered order.
    A contended host slows the first part more and the second less than
    it slows the simulator; their sum tracks the simulator.
    """

    POOL = 30_000

    def __init__(self) -> None:
        rng = random.Random(3)
        self.pool = [_Slot(i) for i in range(self.POOL)]
        self.order = list(range(self.POOL))
        rng.shuffle(self.order)
        self.table = {i: i for i in range(self.POOL)}
        self._cursor = 0

    def run(self) -> int:
        cells = [_Cell() for _ in range(16)]
        small = {}
        for step in range(2_000):
            cells[step & 15].push(step)
            value = cells[(step * 7) & 15].pop()
            if value is not None:
                small[value & 255] = small.get(value & 255, 0) + 1
        pool, order, table = self.pool, self.order, self.table
        start, total = self._cursor, 0
        for step in range(1_500):
            slot = pool[order[(start + step * 97) % self.POOL]]
            slot.value += 1
            total += table[slot.value % self.POOL]
        self._cursor = (start + 1_500) % self.POOL
        return len(small) + total


class HostClock:
    """Hooks ``MetricRegistry.snapshot_epoch`` (called once per control
    epoch) for a ``with`` block.

    At each boundary it records the host time since the previous boundary
    of the same registry (one registry per simulator), then runs the
    probe.  The hook runs at epoch frequency only, so it is cheap enough
    for the timed runs.  Processes forked inside the block (sweep
    workers) never probe; while ``worker_dir`` is set they append their
    epochs to a file there, which :meth:`collect_worker_epochs` reads
    back.  With a ``tracer``, every epoch is also kept as a span and the
    probe runs only where the caller asks, so it never lands inside a
    traced span.
    """

    def __init__(self, tracer=None) -> None:
        #: (host ms, simulated cycles) between consecutive epoch
        #: boundaries of one simulator, probe time excluded
        self.epochs: List[Tuple[float, int]] = []
        self.tracer = tracer
        self.probe_s = 0.0
        self.probes = 0
        #: probe seconds and count since the last ``restart_speed``
        self._window = [0.0, 0]
        self.kernel = ReferenceKernel()
        #: directory where forked workers record their epochs (or None)
        self.worker_dir: Optional[Path] = None
        self._pid = os.getpid()
        self._last: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._original = None

    def now(self) -> float:
        """Host seconds, not counting the time spent probing."""
        return time.perf_counter() - self.probe_s

    def probe(self) -> float:
        """Time the reference kernel once (in the owning process only);
        returns the host speed it saw."""
        if os.getpid() != self._pid:
            return 1.0
        t0 = time.perf_counter()
        self.kernel.run()
        elapsed = time.perf_counter() - t0
        self.probe_s += elapsed
        self.probes += 1
        self._window[0] += elapsed
        self._window[1] += 1
        return elapsed / REFERENCE_KERNEL_S

    def collect_worker_epochs(self) -> None:
        """Move the epochs forked workers recorded into :attr:`epochs`."""
        for path in sorted(self.worker_dir.glob("epochs-*.txt")):
            for line in path.read_text().splitlines():
                ms, cycles = line.split()
                self.epochs.append((float(ms), int(cycles)))
            path.unlink()

    @property
    def epoch_ms(self) -> List[float]:
        """Host ms of each full-length epoch (a run's final partial epoch
        and the one after it are shorter, so they are left out)."""
        full = max((cycles for _, cycles in self.epochs), default=0)
        return [ms for ms, cycles in self.epochs if cycles == full]

    def restart_speed(self) -> None:
        """Let :attr:`speed` describe only the probes taken from now on."""
        self._window = [0.0, 0]

    @property
    def speed(self) -> float:
        """Mean probe time over the reference host's (>1: slower host)."""
        total, count = self._window
        return total / count / REFERENCE_KERNEL_S if count else 1.0

    def __enter__(self) -> "HostClock":
        original = self._original = MetricRegistry.__dict__["snapshot_epoch"]
        last = self._last
        samples = self.epochs
        tracer = self.tracer
        pid = self._pid

        def snapshot_epoch(registry, cycle):
            row = original(registry, cycle)
            forked = os.getpid() != pid
            if forked and self.worker_dir is None:
                return row
            now, raw = self.now(), time.perf_counter()
            prev = last.get(registry)
            if prev is not None:
                sample = ((now - prev[0]) * 1e3, cycle - prev[2])
                if forked:
                    path = self.worker_dir / f"epochs-{os.getpid()}.txt"
                    with open(path, "a") as handle:
                        handle.write(f"{sample[0]!r} {sample[1]}\n")
                else:
                    samples.append(sample)
                if tracer is not None:
                    tracer.add_span("epoch", prev[1], raw)
            if tracer is None:
                self.probe()
            last[registry] = (self.now(), time.perf_counter(), cycle)
            return row

        MetricRegistry.snapshot_epoch = snapshot_epoch
        return self

    def __exit__(self, *exc) -> None:
        MetricRegistry.snapshot_epoch = self._original
