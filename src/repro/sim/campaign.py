"""Paper-figure campaign runner: pretrain once, evaluate everywhere.

The headline claims of the paper (Figs 6-10) are a benchmarks x designs
grid.  Running that grid naively has two failure modes this module
removes:

* **Repaid pre-training** — every invocation used to re-run the
  synthetic pre-training phase for every trainable design, even though
  the phase is a pure function of (config, design, seed).  A campaign
  pretrains each combination exactly once and persists the frozen
  policy as a versioned, CRC-guarded artifact (the PR-3 checkpoint
  container, ``ARTIFACT_VERSION`` body); later invocations — and every
  grid cell — reuse it.

* **Cross-benchmark state leakage** — chaining one live policy object
  across benchmarks leaked what benchmark N learned into benchmark N+1,
  making measured numbers depend on iteration order.  Each campaign
  cell clones a fresh policy from the pretrained artifact, so online
  adaptation stays cell-local and per-cell results are bit-identical
  across benchmark orderings and ``--jobs`` settings.

A campaign is one supervised :class:`~repro.sim.sweep.SweepRunner`
pass (timeouts, retries, quarantine, incremental cache flushing).  Each
missing or stale artifact is a :class:`~repro.sim.sweep.Prerequisite`
task of that pass: builds launch first, a trainable design's cells wait
for its build, and stateless cells fill the free workers meanwhile.  A
build that keeps failing quarantines its design's cells instead of
aborting the grid.  The campaign is resumable: killed mid-flight, a
rerun replays finished cells from the result cache and reuses the
artifacts.
``repro.sim.report`` turns the merged grid into the normalized Figs
6-10 tables; the ``repro campaign`` CLI command wires it all together.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.checkpoint import (
    ARTIFACT_VERSION,
    CheckpointError,
    read_policy_artifact_meta,
    save_policy_artifact,
)
from repro.sim.config import SimulationConfig
from repro.sim.experiment import (
    DESIGN_ORDER,
    default_design_factories,
    pretrain_policy,
)
from repro.sim.metrics import RunResult
from repro.sim.sweep import (
    DEFAULT_CACHE_DIR,
    PointResult,
    Prerequisite,
    SweepPoint,
    SweepProgress,
    SweepReport,
    SweepRunner,
)
from repro.traffic.parsec import PARSEC_PROFILES

__all__ = [
    "DEFAULT_ARTIFACT_DIR",
    "CampaignSpec",
    "CampaignGrid",
    "CampaignResult",
    "artifact_key",
    "artifact_file",
    "ensure_artifact",
    "plan_artifacts",
    "run_campaign",
    "merge_campaign",
]

logger = logging.getLogger("repro.sim.campaign")

#: Artifacts live beside the point cache by default, so one
#: ``--cache-dir``-style override relocates the whole campaign state.
DEFAULT_ARTIFACT_DIR = str(Path(DEFAULT_CACHE_DIR) / "artifacts")


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
def artifact_key(config: SimulationConfig, design: str, seed: int) -> str:
    """Content hash of everything a pretrained artifact depends on.

    The *full* config is hashed, not just the pre-training knobs: an
    artifact must never be served for a platform it was not trained on,
    and config fields are cheap to hash compared to diagnosing a
    silently mismatched mesh.
    """
    fingerprint = {
        "artifact_version": ARTIFACT_VERSION,
        "config": dataclasses.asdict(config),
        "design": design,
        "seed": seed,
    }
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def artifact_file(
    artifact_dir: Union[str, Path], design: str, seed: int, key: str
) -> Path:
    """Canonical artifact location; the key in the name makes a stale
    file for the same (design, seed) a cache miss, not a wrong hit."""
    return Path(artifact_dir) / f"{design}-s{seed}-{key}.ckpt"


def _artifact_is_current(path: Path, key: str) -> bool:
    """True when ``path`` holds a valid artifact container (magic,
    version, body CRC) whose stored content key is ``key``."""
    try:
        meta = read_policy_artifact_meta(path)
    except CheckpointError:
        return False  # missing, torn, or foreign-version artifact
    return meta.get("key") == key


def ensure_artifact(
    config: SimulationConfig,
    design: str,
    seed: int,
    artifact_dir: Union[str, Path] = DEFAULT_ARTIFACT_DIR,
    refresh: bool = False,
    tracer=None,
) -> Tuple[Path, str, bool]:
    """Build — or reuse — the pretrained artifact for one design.

    Returns ``(path, key, built)``.  An existing artifact is reused only
    when its container validates (magic, version, body CRC) AND its
    stored content key matches the requested one; anything suspect is
    rebuilt in place.  ``built=False`` is the warm-cache fast path that
    lets a campaign skip the entire pre-training phase.
    """
    key = artifact_key(config, design, seed)
    path = artifact_file(artifact_dir, design, seed, key)
    if not refresh and _artifact_is_current(path, key):
        logger.info("reusing pretrained artifact %s", path)
        _emit_artifact(tracer, "artifact_reuse", design, seed, key)
        return path, key, False
    policy = default_design_factories(seed)[design]()
    started = time.perf_counter()
    pretrain_policy(policy, config, seed=seed)
    elapsed = time.perf_counter() - started
    save_policy_artifact(
        path,
        policy.to_state(),
        meta={
            "key": key,
            "design": design,
            "seed": seed,
            "policy": policy.name,
            "pretrain_cycles": config.pretrain_cycles,
            "pretrain_seconds": elapsed,
            "config": dataclasses.asdict(config),
        },
    )
    logger.info(
        "pretrained %s (seed %d) in %.1fs -> %s", design, seed, elapsed, path
    )
    _emit_artifact(tracer, "artifact_build", design, seed, key)
    return path, key, True


def _emit_artifact(tracer, kind: str, design: str, seed: int, key: str) -> None:
    if tracer is not None:
        tracer.emit(0, "campaign", kind, design=design, seed=seed, key=key)


def _build_artifact(
    config: SimulationConfig, design: str, seed: int, artifact_dir: Union[str, Path]
) -> Dict[str, str]:
    """Body of an artifact task (a sweep worker, or in process for
    ``jobs=1``): pretrain and save, unconditionally — the parent has
    already found the artifact missing or stale."""
    path, key, _built = ensure_artifact(
        config, design, seed, artifact_dir, refresh=True
    )
    return {"path": str(path), "key": key}


# ----------------------------------------------------------------------
# Campaign specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignSpec:
    """Declarative benchmarks x designs paper-figure grid."""

    config: SimulationConfig
    benchmarks: Tuple[str, ...] = tuple(sorted(PARSEC_PROFILES))
    designs: Tuple[str, ...] = DESIGN_ORDER
    seed: int = 0
    trace_cycles: int = 3_000

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise ValueError("benchmarks cannot be empty")
        if not self.designs:
            raise ValueError("designs cannot be empty")
        for benchmark in self.benchmarks:
            if benchmark not in PARSEC_PROFILES:
                raise ValueError(
                    f"unknown benchmark {benchmark!r}; pick from "
                    f"{', '.join(sorted(PARSEC_PROFILES))}"
                )
        for design in self.designs:
            if design not in DESIGN_ORDER:
                raise ValueError(
                    f"unknown design {design!r}; pick one of {', '.join(DESIGN_ORDER)}"
                )
        if self.trace_cycles < 1:
            raise ValueError("trace_cycles must be positive")


@dataclass(frozen=True)
class CampaignGrid:
    """Pre-built campaign points behind the runner's spec interface.

    The generic :class:`~repro.sim.sweep.SweepSpec` cross product cannot
    carry per-design artifact bindings, so campaigns hand the runner an
    already-expanded point list through the same ``config`` +
    ``expand()`` surface.
    """

    config: SimulationConfig
    points: Tuple[SweepPoint, ...]

    def expand(self) -> List[SweepPoint]:
        return list(self.points)


def plan_artifacts(
    spec: CampaignSpec,
    artifact_dir: Union[str, Path] = DEFAULT_ARTIFACT_DIR,
    refresh: bool = False,
) -> Dict[str, Tuple[Path, str, bool]]:
    """``{design: (path, key, build)}`` for each *trainable* design, where
    ``build`` says the artifact is missing or stale (or ``refresh`` asks
    for a rebuild).  Nothing is built here: :func:`run_campaign` hands
    every build to its runner as an artifact task.

    Stateless designs (crc, arq_ecc) have nothing to pre-train and get
    no artifact; their cells run directly from a fresh policy.
    """
    plan: Dict[str, Tuple[Path, str, bool]] = {}
    factories = default_design_factories(spec.seed)
    for design in spec.designs:
        if not factories[design]().trainable:
            continue
        key = artifact_key(spec.config, design, spec.seed)
        path = artifact_file(artifact_dir, design, spec.seed, key)
        plan[design] = (path, key, refresh or not _artifact_is_current(path, key))
    return plan


def campaign_points(
    spec: CampaignSpec, artifacts: Dict[str, Tuple[Path, str, bool]]
) -> Tuple[SweepPoint, ...]:
    """The grid's cells in deterministic order (benchmark outer, design
    inner — the same nesting convention ``SweepSpec.expand`` uses);
    ``artifacts`` is a :func:`plan_artifacts` result."""
    points: List[SweepPoint] = []
    for benchmark in spec.benchmarks:
        for design in spec.designs:
            path, key, _build = artifacts.get(design, (None, "", False))
            points.append(
                SweepPoint(
                    kind="campaign",
                    design=design,
                    traffic=benchmark,
                    seed=spec.seed,
                    cycles=spec.trace_cycles,
                    artifact_hash=key,
                    artifact_path=str(path) if path is not None else "",
                )
            )
    return tuple(points)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Everything one campaign invocation produced."""

    spec: CampaignSpec
    #: {benchmark: {design: RunResult}} — ``run_parsec_suite``'s shape
    suite: Dict[str, Dict[str, RunResult]]
    #: {design: {"path", "key", "built"}} for the trainable designs (a
    #: design whose build was quarantined is left out, like its cells)
    artifacts: Dict[str, Dict[str, object]]
    #: raw per-cell results in grid order (None = quarantined)
    results: List[Optional[PointResult]]
    report: SweepReport
    elapsed_seconds: float = 0.0

    @property
    def succeeded(self) -> bool:
        return self.report.succeeded

    def counters(self) -> Dict[str, float]:
        """Flat campaign counters (``campaign.*`` gauges when ingested
        into a :class:`repro.obs.MetricRegistry`)."""
        built = sum(1 for a in self.artifacts.values() if a["built"])
        return {
            "artifacts_built": built,
            "artifacts_reused": len(self.artifacts) - built,
            "cells_total": self.report.total,
            "cells_executed": self.report.executed,
            "cells_cached": self.report.from_cache,
            "cells_quarantined": len(self.report.quarantined),
            "elapsed_seconds": self.elapsed_seconds,
        }


def merge_campaign(
    results: Sequence[Optional[PointResult]],
) -> Dict[str, Dict[str, RunResult]]:
    """Merge campaign cells into ``run_parsec_suite``'s
    {benchmark: {design: RunResult}} shape (quarantined cells skipped)."""
    suite: Dict[str, Dict[str, RunResult]] = {}
    for result in results:
        if result is None or result.run is None:
            continue
        suite.setdefault(result.point.traffic, {})[result.point.design] = result.run
    return suite


# ----------------------------------------------------------------------
# The campaign itself
# ----------------------------------------------------------------------
def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    artifact_dir: Union[str, Path] = DEFAULT_ARTIFACT_DIR,
    cache_dir: Union[str, Path] = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
    refresh: bool = False,
    refresh_artifacts: bool = False,
    progress: Optional[Callable[[SweepProgress], None]] = None,
    point_timeout: Optional[float] = None,
    max_retries: int = 2,
    registry=None,
    tracer=None,
) -> CampaignResult:
    """Run the full paper-figure grid; returns a :class:`CampaignResult`.

    One supervised :class:`SweepRunner` pass runs everything: an artifact
    task pretrains each trainable design whose artifact is missing or
    stale, then the benchmarks x designs cells run, each cloning its
    policy from its design's artifact.  A trainable design's cells wait
    for its artifact task; stateless cells are ready at once, so with
    ``jobs > 1`` the builds run side by side and the stateless cells
    fill the idle workers.  ``jobs=1`` builds in process first, then
    runs the cells.  An artifact task is retried like a cell (but never
    timed out, and never cached); if it is quarantined, so are its
    design's cells, unlaunched, and the campaign carries on.

    Per-cell results are a pure function of (config, cell, artifact
    content), so they are bit-identical across benchmark orderings and
    ``jobs`` settings, and replay from the point cache on reruns.
    ``registry`` additionally absorbs ``campaign.*`` counters; ``tracer``
    receives artifact build/reuse events (campaign category), emitted
    here from the task outcomes whatever ``jobs`` is.
    """
    started = time.monotonic()
    plan = plan_artifacts(spec, artifact_dir, refresh=refresh_artifacts)
    points = campaign_points(spec, plan)
    builds = [design for design, (_path, _key, build) in plan.items() if build]
    runner = SweepRunner(
        CampaignGrid(config=spec.config, points=points),
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        refresh=refresh,
        progress=progress,
        point_timeout=point_timeout,
        max_retries=max_retries,
        registry=registry,
        prerequisites=[
            Prerequisite(
                label=f"artifact:{design}:s{spec.seed}:a{plan[design][1][:8]}",
                fn=_build_artifact,
                args=(spec.config, design, spec.seed, artifact_dir),
                dependents=tuple(
                    i for i, point in enumerate(points) if point.design == design
                ),
            )
            for design in builds
        ],
    )
    results = runner.run()
    outcomes = dict(zip(builds, runner.prerequisite_results))
    artifacts: Dict[str, Dict[str, object]] = {}
    for design, (path, key, build) in plan.items():
        if build and outcomes[design] is None:
            continue  # quarantined together with its cells
        if not build:
            logger.info("reusing pretrained artifact %s", path)
        _emit_artifact(
            tracer, "artifact_build" if build else "artifact_reuse",
            design, spec.seed, key,
        )
        artifacts[design] = {"path": str(path), "key": key, "built": build}
    result = CampaignResult(
        spec=spec,
        suite=merge_campaign(results),
        artifacts=artifacts,
        results=results,
        report=runner.report,
        elapsed_seconds=time.monotonic() - started,
    )
    counters = result.counters()
    if registry is not None:
        registry.ingest("campaign", counters)
    if tracer is not None:
        tracer.emit(
            0, "campaign", "complete",
            cells=int(counters["cells_total"]),
            executed=int(counters["cells_executed"]),
            cached=int(counters["cells_cached"]),
            quarantined=int(counters["cells_quarantined"]),
        )
    return result
