"""End-to-end determinism of checkpoint/resume.

The tentpole contract: a run that is snapshotted, killed, and resumed
from disk produces *exactly* the RunResult of a run that was never
interrupted — and the ResumableRun plan itself is byte-equivalent to the
classic ``pretrain -> freeze -> warmup -> measure_trace`` pipeline.
"""

import dataclasses
import shutil

import pytest

from repro.sim import (
    ResumableRun,
    Simulator,
    default_design_factories,
    read_checkpoint_meta,
    scaled_config,
    synthesize_benchmark_trace,
)


def small_config():
    return scaled_config(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=1_500,
        warmup_cycles=300,
    )


def classic_run(config, design, benchmark, trace_cycles, seed=0):
    policy = default_design_factories(seed)[design]()
    sim = Simulator(config, policy, seed=seed)
    if policy.trainable:
        sim.pretrain()
    policy.freeze()
    sim.warmup()
    trace = synthesize_benchmark_trace(benchmark, config, trace_cycles, seed)
    return sim.measure_trace(trace, benchmark)


#: one campaign per fault layer the shared plan has to carry unchanged
CAMPAIGNS = {
    "none": {},
    "fault_spec": {"fault_spec": "link@600:1E;router@1900:4"},
    "sensor_spec": {"sensor_spec": "drop@0.2:util;stuck@r5.temp=0.9;noise@0.05:nack"},
    "soft_error_spec": {"soft_error_spec": "qtable@2e-5;mode@r3+1000;burst@1600:4"},
}


@pytest.mark.parametrize(
    "design, campaign",
    [
        pytest.param(
            design, campaign,
            id=design if campaign == "none" else f"{design}-{campaign}",
        )
        for campaign in CAMPAIGNS
        for design in ("rl", "crc", "dt")
    ],
)
def test_plan_matches_classic_pipeline(design, campaign):
    """ResumableRun with no checkpointing is the classic pipeline: it
    walks the plan pretrain()/warmup() execute, under every fault layer."""
    config = dataclasses.replace(small_config(), **CAMPAIGNS[campaign])
    classic = classic_run(config, design, "swaptions", 300)
    planned = ResumableRun(config, design, "swaptions", trace_cycles=300).run()
    assert planned == classic


def test_interrupted_run_resumes_bit_identically(tmp_path):
    """Snapshots from every phase of a checkpointed run resume to the
    uninterrupted result (the CI kill-and-resume smoke in miniature)."""
    config = small_config()
    baseline = ResumableRun(config, "rl", "swaptions", trace_cycles=300).run()

    run = ResumableRun(
        config, "rl", "swaptions", trace_cycles=300,
        checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=90,
    )
    copies = []
    original_save = run.save

    def keep(path=None):
        saved = original_save(path)
        copy = tmp_path / f"{run.sim.network.now}.snap"
        if not copy.exists():
            shutil.copy(saved, copy)
            copies.append(copy)
        return saved

    run.save = keep
    assert run.run() == baseline

    by_phase = {}
    for copy in copies:
        meta = read_checkpoint_meta(copy)
        if not meta["finished"]:
            by_phase.setdefault(meta["phase"], copy)
    assert "pretrain" in by_phase  # plan must checkpoint during training
    for phase, snap in sorted(by_phase.items()):
        resumed = ResumableRun.resume(
            snap, checkpoint_path=tmp_path / "scratch.ckpt", checkpoint_every=0
        ).run()
        assert resumed == baseline, f"resume from {phase} diverged"
