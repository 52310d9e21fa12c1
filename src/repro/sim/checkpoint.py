"""Crash-resilient checkpoint/resume for long simulation runs.

A multi-hour RL training run that evaporates on the first SIGKILL is not
a production harness.  This module makes the full ``run`` pipeline
(pre-train -> warm-up -> measured trace replay) durable:

* **Container format** — a checkpoint file is ``MAGIC | header-length |
  JSON header | pickle body``.  The header carries the format version, a
  CRC32 over the body, and human-readable metadata (design, benchmark,
  cycle), so tooling can inspect a snapshot without unpickling it and a
  torn or bit-rotted file is rejected loudly instead of resuming
  garbage.  Writes are atomic (unique tmp + ``os.replace``), so a kill
  mid-write never corrupts the previous snapshot.

* **Bit-identical resume** — the body pickles the entire
  :class:`~repro.sim.simulator.Simulator` object graph (network buffers,
  in-flight flits, RNG states, Q-tables, thermal state) plus the active
  traffic source and the run-plan cursor.  Because serialization never
  mutates state and restores it exactly, a run that is killed and
  resumed produces the same final metrics, bit for bit, as one that was
  never interrupted — the determinism contract the integration tests
  pin down.

* **Warm-start snapshots** — a campaign warms each design's platform
  once and every benchmark cell of that design restores the warmed-up
  simulator (:func:`save_warm_start` / :func:`load_warm_start`), keyed by
  :func:`warm_start_key`.

* **Validated Q-state** — alongside the pickle, the policy's learned
  state is stored through ``ControlPolicy.to_state`` and re-loaded
  through ``load_state`` on resume, which routes every Q-table through
  :meth:`QLearningAgent.from_state` validation.  A table with NaN/inf
  entries or a wrong action count does not crash the resume: the
  affected router is pinned to safe mode (mode 3, timing relaxation)
  and the degradation is logged.

The run plan is shared, not copied: ``ResumableRun`` walks
:meth:`Simulator.phase_plan <repro.sim.simulator.Simulator.phase_plan>`,
the same segment list ``Simulator.pretrain`` / ``warmup`` execute, and
every segment advances through ``Simulator.advance`` — so a run with no
checkpointing is byte-equivalent to ``pretrain -> freeze -> warmup ->
measure_trace``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
import shutil
import struct
import uuid
import zlib
from pathlib import Path
from typing import BinaryIO, Dict, Optional, Tuple, Union

from repro.noc.network import resolve_kernel
from repro.noc.packet import Packet
from repro.sim.config import SimulationConfig
from repro.sim.experiment import (
    default_design_factories,
    synthesize_benchmark_trace,
)
from repro.sim.metrics import RunResult
from repro.sim.simulator import Simulator

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "ARTIFACT_VERSION",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
    "save_policy_artifact",
    "load_policy_artifact",
    "read_policy_artifact_meta",
    "warm_start_key",
    "save_warm_start",
    "load_warm_start",
    "ResumableRun",
]

logger = logging.getLogger("repro.sim.checkpoint")

CHECKPOINT_MAGIC = b"RNOCCKPT"
#: Version 2: the pickled object graph gained the activity-driven kernel
#: state (active-set registries, skip-sampler gap countdowns, the O(1)
#: outstanding-message counter) and reshaped several slotted hot classes
#: — version-1 bodies cannot restore into this build, so they are
#: rejected by the header check instead of failing deep in pickle.
#: Version 3: the simulator gained the degraded-telemetry control plane
#: (sensor-fault model countdowns, observation-guard hold/quarantine
#: state, the epoch index and per-router mode-switch debounce clocks) —
#: version-2 bodies would restore into a simulator missing those
#: attributes and die at the first epoch boundary.
#: Version 4: the simulator gained the memory soft-error subsystem (SEU
#: model one-shot flags and master RNG, SECDED Q-table storages with
#: codeword tables and dirty sets, the TMR mode-register bank, ECC
#: escalation state) and the metric registry's instruments grew a
#: non-finite guard backref — version-3 bodies would restore into
#: objects missing those attributes and die at the first epoch boundary
#: or scrub pass.
#: Version 5: the fast kernel's per-flit datapath was reshaped — the
#: network keeps one fused per-channel delivery table and each router
#: caches its mode's datapath tuple — so version-4 bodies would restore
#: into a network and routers missing those attributes.
#: Version 6: each router keeps a cached route-computation verdict row
#: and the ACK/NACK sideband carries int tokens instead of ``AckMessage``
#: objects, so version-5 bodies would restore into routers missing the
#: row and channels holding the old message objects.
#: Campaign warm-start snapshots are pickled simulators in this container
#: and hash this version into their key, so every bump invalidates them.
CHECKPOINT_VERSION = 6

#: Pretrained-policy campaign artifacts share the container format but
#: version independently: an artifact body is a ``ControlPolicy.to_state``
#: snapshot, not a pickled Simulator graph, so simulator reshapes that
#: bump CHECKPOINT_VERSION do not invalidate artifacts (and vice versa).
#: Version 1: {"state": <policy.to_state()>} bodies.
ARTIFACT_VERSION = 1

_HEADER_LEN = struct.Struct("<I")
#: bytes per read/copy when streaming a container body
_CHUNK = 1 << 16


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, torn, corrupt, or incompatible."""


def save_checkpoint(
    path: Union[str, Path],
    payload: object,
    meta: Dict[str, object],
    version: int = CHECKPOINT_VERSION,
) -> Path:
    """Atomically write a versioned, CRC-guarded checkpoint.

    The body is pickled ``payload``; ``meta`` must be JSON-serializable
    and is readable later via :func:`read_checkpoint_meta` without
    touching the pickle.  The write goes to a uniquely-named temp file
    first and is published with ``os.replace``, so a crash mid-write
    leaves any previous checkpoint intact.  ``version`` defaults to the
    run-snapshot format; other container users (campaign artifacts)
    stamp their own version so readers reject foreign bodies cleanly.

    The pickle streams to disk instead of being held in memory next to
    the object graph it encodes.  The header needs the body's CRC and
    length, so the body is written to a side file first and copied in
    behind the header.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stem = f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}"
    body_tmp = path.with_name(f"{stem}.body")
    tmp = path.with_name(f"{stem}.tmp")
    try:
        with body_tmp.open("w+b") as body:
            sink = _CrcSink(body)
            pickle.dump(payload, sink, protocol=pickle.HIGHEST_PROTOCOL)
            header = json.dumps(
                {
                    "version": version,
                    "crc32": sink.crc32,
                    "body_bytes": sink.size,
                    "meta": meta,
                },
                sort_keys=True,
            ).encode("utf-8")
            body.seek(0)
            with tmp.open("wb") as handle:
                handle.write(CHECKPOINT_MAGIC)
                handle.write(_HEADER_LEN.pack(len(header)))
                handle.write(header)
                shutil.copyfileobj(body, handle, _CHUNK)
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        for leftover in (body_tmp, tmp):
            if leftover.exists():
                leftover.unlink()
    return path


class _CrcSink:
    """Write-through file wrapper that counts and CRCs what passes."""

    __slots__ = ("handle", "crc32", "size")

    def __init__(self, handle: BinaryIO) -> None:
        self.handle = handle
        self.crc32 = 0
        self.size = 0

    def write(self, data) -> int:
        self.crc32 = zlib.crc32(data, self.crc32)
        self.size += memoryview(data).nbytes
        return self.handle.write(data)


def _open_container(
    path: Union[str, Path], version: int = CHECKPOINT_VERSION
) -> Tuple[Dict[str, object], BinaryIO]:
    """Validate a container (magic, header, version, body length and
    CRC, reading the body in chunks) and return its header and an open
    handle positioned at the start of the body."""
    path = Path(path)
    try:
        handle = path.open("rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    try:
        prefix = handle.read(len(CHECKPOINT_MAGIC) + _HEADER_LEN.size)
        if len(prefix) < len(CHECKPOINT_MAGIC) + _HEADER_LEN.size:
            raise CheckpointError(f"{path} is truncated (not a checkpoint)")
        if not prefix.startswith(CHECKPOINT_MAGIC):
            raise CheckpointError(f"{path} is not a repro checkpoint (bad magic)")
        (header_len,) = _HEADER_LEN.unpack_from(prefix, len(CHECKPOINT_MAGIC))
        raw_header = handle.read(header_len)
        if len(raw_header) < header_len:
            raise CheckpointError(f"{path} is truncated (header cut short)")
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path} has a corrupt header: {exc}") from None
        found = header.get("version")
        if found != version:
            raise CheckpointError(
                f"{path} is checkpoint version {found!r}; this reader expects "
                f"version {version}"
            )
        body_start = handle.tell()
        crc = 0
        size = 0
        for chunk in iter(lambda: handle.read(_CHUNK), b""):
            crc = zlib.crc32(chunk, crc)
            size += len(chunk)
        if size != header.get("body_bytes"):
            raise CheckpointError(
                f"{path} is truncated: body is {size} bytes, header "
                f"promises {header.get('body_bytes')}"
            )
        if crc != header.get("crc32"):
            raise CheckpointError(f"{path} failed its CRC check (corrupt body)")
        handle.seek(body_start)
    except BaseException:
        handle.close()
        raise
    return header, handle


def read_checkpoint_meta(
    path: Union[str, Path], version: int = CHECKPOINT_VERSION
) -> Dict[str, object]:
    """Validate the container and return the JSON metadata only."""
    header, handle = _open_container(path, version=version)
    handle.close()
    return dict(header.get("meta", {}))


def load_checkpoint(
    path: Union[str, Path], version: int = CHECKPOINT_VERSION
) -> Tuple[object, Dict[str, object]]:
    """Validate and unpickle a checkpoint; returns (payload, meta)."""
    header, handle = _open_container(path, version=version)
    with handle:
        try:
            payload = pickle.load(handle)
        except Exception as exc:  # pickle raises a zoo of types
            raise CheckpointError(f"{path} body failed to unpickle: {exc}") from None
    return payload, dict(header.get("meta", {}))


# ----------------------------------------------------------------------
# Pretrained-policy campaign artifacts
# ----------------------------------------------------------------------
def save_policy_artifact(
    path: Union[str, Path], state: Dict[str, object], meta: Dict[str, object]
) -> Path:
    """Persist a frozen policy snapshot as a campaign artifact.

    Same atomic, CRC-guarded container as run checkpoints, stamped with
    :data:`ARTIFACT_VERSION`; ``state`` is a ``ControlPolicy.to_state``
    snapshot and ``meta`` should carry the campaign's content key so
    readers can verify they got the artifact they asked for.
    """
    return save_checkpoint(path, {"state": state}, meta, version=ARTIFACT_VERSION)


def load_policy_artifact(
    path: Union[str, Path],
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Validate an artifact and return ``(policy_state, meta)``."""
    payload, meta = load_checkpoint(path, version=ARTIFACT_VERSION)
    if not isinstance(payload, dict) or "state" not in payload:
        raise CheckpointError(f"{path} is not a policy artifact")
    return payload["state"], meta


def read_policy_artifact_meta(path: Union[str, Path]) -> Dict[str, object]:
    """Validate an artifact container and return its metadata only."""
    return read_checkpoint_meta(path, version=ARTIFACT_VERSION)


# ----------------------------------------------------------------------
# Warm-start snapshots
# ----------------------------------------------------------------------
def warm_start_key(
    config: SimulationConfig, design: str, seed: int, artifact_key: str
) -> str:
    """Content hash of a warm-start snapshot: a ``Simulator(config,
    policy, seed)`` after :meth:`~repro.sim.simulator.Simulator.warmup`,
    its policy cloned from the artifact ``artifact_key`` names ("" for a
    stateless design).  The snapshot body is a pickled simulator, so
    :data:`CHECKPOINT_VERSION` is hashed too: a bump invalidates every
    snapshot along with the run checkpoints.
    """
    fingerprint = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(config),
        "design": design,
        "seed": seed,
        "artifact_key": artifact_key,
    }
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def save_warm_start(
    path: Union[str, Path], sim: Simulator, meta: Dict[str, object]
) -> Path:
    """Persist a warmed-up simulator in the run-checkpoint container.

    ``meta`` should carry the snapshot's :func:`warm_start_key` as
    ``key``.  The packet-id counter rides along, as in a run checkpoint,
    so packets injected after the restore never reuse the ids the
    pickled in-flight packets carry.
    """
    return save_checkpoint(path, {"sim": sim, "next_pid": Packet._next_pid}, meta)


def load_warm_start(path: Union[str, Path], key: str) -> Simulator:
    """Restore a warm-start snapshot, ready for ``measure_trace``.

    Raises :class:`CheckpointError` for a missing, torn or foreign
    container and ``ValueError`` when its stored key is not ``key``.
    """
    payload, meta = load_checkpoint(path)
    if meta.get("key") != key:
        raise ValueError(
            f"warm-start snapshot {path} carries key {meta.get('key')!r}; "
            f"this cell expects {key!r}"
        )
    if not isinstance(payload, dict) or "sim" not in payload:
        raise CheckpointError(f"{path} is not a warm-start snapshot")
    sim = payload["sim"]
    # The kernel is an execution detail; both kernels are bit-identical.
    sim.network.kernel = resolve_kernel(None)
    sim.restore_packet_counter(payload.get("next_pid"))
    return sim


# ----------------------------------------------------------------------
# The resumable run plan
# ----------------------------------------------------------------------
class ResumableRun:
    """One checkpointable (design, benchmark) measurement run.

    Drives the same phase pipeline as ``repro run`` through an explicit
    segment cursor, snapshotting the whole simulation every
    ``checkpoint_every`` cycles (and at every segment boundary) when a
    ``checkpoint_path`` is set.  :meth:`resume` restores a snapshot and
    continues to the same final :class:`RunResult` an uninterrupted run
    produces.
    """

    def __init__(
        self,
        config: SimulationConfig,
        design: str,
        benchmark: str,
        seed: int = 0,
        trace_cycles: int = 3_000,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every cannot be negative")
        self.config = config
        self.design = design
        self.benchmark = benchmark
        self.seed = seed
        self.trace_cycles = trace_cycles
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_every = checkpoint_every

        policy = default_design_factories(seed)[design]()
        self.sim = Simulator(config, policy, seed=seed)
        self.segments = self.sim.phase_plan()
        self.segment_index = 0
        self.segment_offset = 0
        self.source = None
        self.result: Optional[RunResult] = None
        self.checkpoints_written = 0

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _meta(self) -> Dict[str, object]:
        segment = (
            self.segments[self.segment_index].phase
            if self.segment_index < len(self.segments)
            else "done"
        )
        return {
            "design": self.design,
            "benchmark": self.benchmark,
            "seed": self.seed,
            "trace_cycles": self.trace_cycles,
            "cycle": self.sim.network.now,
            "segment": self.segment_index,
            "phase": segment,
            "finished": self.result is not None,
            "checkpoint_every": self.checkpoint_every,
            # Informational: which cycle kernel produced the snapshot.
            # Both kernels are bit-identical and the snapshot carries the
            # activity registries either way, so a checkpoint written
            # under one kernel resumes correctly under the other.
            "kernel": self.sim.network.kernel,
            "config": dataclasses.asdict(self.config),
        }

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Snapshot the run (atomic, versioned, CRC-guarded)."""
        target = Path(path) if path is not None else self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        # Emit before pickling, so the snapshot's own trace buffer
        # already contains this save marker — a run that checkpoints and
        # one that checkpoints *and later resumes* then carry identical
        # save events (the canonical digest excludes the checkpoint
        # category anyway; see repro.obs.trace.DIGEST_EXCLUDE).
        tracer = getattr(self.sim, "tracer", None)
        if tracer is not None:
            tracer.emit(
                self.sim.network.now,
                "checkpoint",
                "save",
                segment=self.segment_index,
                offset=self.segment_offset,
            )
        payload = {
            "config": self.config,
            "design": self.design,
            "benchmark": self.benchmark,
            "seed": self.seed,
            "trace_cycles": self.trace_cycles,
            "sim": self.sim,
            "source": self.source,
            "segment_index": self.segment_index,
            "segment_offset": self.segment_offset,
            "result": self.result,
            "policy_state": self.sim.policy.to_state(),
            # Packet ids come from a process-global counter.  Without it
            # a fresh process would reissue ids already carried by the
            # pickled in-flight packets, and the NI reassembly / ARQ
            # bookkeeping (keyed by pid / message_id) would collide.
            "next_pid": Packet._next_pid,
        }
        saved = save_checkpoint(target, payload, self._meta())
        self.checkpoints_written += 1
        return saved

    @classmethod
    def resume(
        cls,
        path: Union[str, Path],
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
    ) -> "ResumableRun":
        """Restore a snapshot; continues checkpointing to the same file
        (at the snapshot's cadence) unless ``checkpoint_path`` /
        ``checkpoint_every`` override it.

        The policy's learned state is re-validated on the way in: any
        rejected Q-table pins its router to safe mode instead of
        aborting the resume.
        """
        if checkpoint_every is not None and checkpoint_every < 0:
            raise ValueError("checkpoint_every cannot be negative")
        payload, meta = load_checkpoint(path)
        if not isinstance(payload, dict) or "sim" not in payload:
            raise CheckpointError(f"{path} is not a run checkpoint")
        run = cls.__new__(cls)
        run.config = payload["config"]
        run.design = payload["design"]
        run.benchmark = payload["benchmark"]
        run.seed = payload["seed"]
        run.trace_cycles = payload["trace_cycles"]
        run.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else Path(path)
        )
        run.checkpoint_every = (
            checkpoint_every
            if checkpoint_every is not None
            else int(meta.get("checkpoint_every", 0) or 0)
        )
        run.sim = payload["sim"]
        # The kernel choice is an execution detail, not simulation state:
        # re-resolve it for the resuming process (REPRO_NAIVE_KERNEL)
        # rather than pinning whatever the snapshotting process used.
        # Safe either way — the active-set registries in the snapshot are
        # always a superset of the live entities, and both kernels are
        # bit-identical.
        run.sim.network.kernel = resolve_kernel(None)
        run.source = payload["source"]
        run.segments = run.sim.phase_plan()
        run.segment_index = payload["segment_index"]
        run.segment_offset = payload["segment_offset"]
        run.result = payload["result"]
        run.checkpoints_written = 0
        # Restore the packet-id counter so ids issued after the resume
        # pick up exactly where the interrupted process left off — both
        # for bit-identity with the uninterrupted run and to keep new
        # pids disjoint from the pickled in-flight packets'.
        run.sim.restore_packet_counter(payload.get("next_pid"))
        # Route the learned state through validation: a poisoned table
        # degrades its router to safe mode rather than resuming garbage.
        run.sim.policy.load_state(payload.get("policy_state"))
        if getattr(run.sim.policy, "safe_mode_routers", None):
            logger.warning(
                "resume degraded %d router(s) to safe mode",
                len(run.sim.policy.safe_mode_routers),
            )
        # The trace buffer (if any) travelled inside the pickled sim; the
        # restore marker is the only event a resumed stream has that the
        # uninterrupted one lacks, and the canonical digest excludes it.
        tracer = getattr(run.sim, "tracer", None)
        if tracer is not None:
            tracer.emit(
                run.sim.network.now,
                "checkpoint",
                "restore",
                segment=run.segment_index,
                offset=run.segment_offset,
            )
        return run

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _on_checkpoint(self, offset: int) -> None:
        self.segment_offset = offset
        self.save()

    def run(self) -> RunResult:
        """Execute (or continue) the plan to completion."""
        every = self.checkpoint_every if self.checkpoint_path is not None else 0
        while self.result is None and self.segment_index < len(self.segments):
            segment = self.segments[self.segment_index]
            if segment.phase == "measure":
                self._run_measure(every)
            else:
                offset = self.segment_offset
                self.source = self.sim.segment_source(segment, self.source, offset)
                self.sim.run_segment(
                    segment, self.source, offset,
                    checkpoint_every=every, on_checkpoint=self._on_checkpoint,
                )
            self.segment_index += 1
            self.segment_offset = 0
            if self.checkpoint_path is not None:
                self.save()
        if self.result is None:  # pragma: no cover - plan always measures
            raise RuntimeError("run plan finished without a measurement")
        return self.result

    def _run_measure(self, every: int) -> None:
        sim = self.sim
        if self.segment_offset == 0:
            records = synthesize_benchmark_trace(
                self.benchmark, self.config, self.trace_cycles, self.seed
            )
            self.source = sim.make_replayer(records)
            sim.begin_measurement()
        execution = sim.advance(
            self.source,
            time_origin=sim.network.now - self.segment_offset,
            checkpoint_every=every,
            on_checkpoint=self._on_checkpoint,
        )
        self.result = sim.finish_measurement(self.benchmark, execution)
        self.source = None
