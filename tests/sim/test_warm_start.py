"""Campaign warm starts: one warmed-up snapshot per design, every cell
starts from it.

The warm-up before a benchmark trace does not depend on the benchmark,
so a campaign warms each design's cell platform once and each cell
restores that simulator and only replays its trace.  These tests pin
that a restored cell measures exactly what a cell that builds and warms
its own platform measures, and that a suspect snapshot is rebuilt (at
plan time) or rejected (in the cell) instead of being measured.
"""

import dataclasses
import shutil
from pathlib import Path

import pytest

from repro.sim import (
    CampaignSpec,
    Simulator,
    clone_policy,
    default_design_factories,
    load_policy_artifact,
    run_campaign,
    run_design_on_trace,
    save_checkpoint,
    scaled_config,
    synthesize_benchmark_trace,
)
from repro.sim.campaign import (
    CampaignGrid,
    campaign_points,
    plan_artifacts,
    plan_warm_starts,
)
from repro.noc.packet import Packet
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    load_warm_start,
    save_warm_start,
    warm_start_key,
)
from repro.sim.experiment import DESIGN_ORDER
from repro.sim.sweep import SweepRunner, _eval_campaign

#: cache entries a campaign of ``_parent_spec`` wrote before cells
#: started from warm-start snapshots (the artifact paths recorded beside
#: each entry were made relative; they are not part of the cache key).
#: A deliberate ``CACHE_SCHEMA`` bump or cell-key change invalidates
#: them: regenerate them then, from the commit before the change.
PARENT_CACHE = Path(__file__).parent / "data" / "parent_campaign_cache"


def tiny_config(**overrides):
    defaults = dict(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=1_500,
        warmup_cycles=200,
    )
    defaults.update(overrides)
    return scaled_config(**defaults)


def _parent_spec():
    return CampaignSpec(
        config=tiny_config(), benchmarks=("swaptions", "blackscholes"),
        designs=DESIGN_ORDER, seed=5, trace_cycles=300,
    )


def _suite_dicts(result):
    return {
        bench: {design: run.constructor_dict() for design, run in row.items()}
        for bench, row in result.suite.items()
    }


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A cold campaign over every design and two benchmarks."""
    root = tmp_path_factory.mktemp("warm")
    spec = _parent_spec()
    result = run_campaign(
        spec, jobs=2, artifact_dir=root / "artifacts", cache_dir=root / "cache",
    )
    assert result.succeeded
    return spec, result, root


class TestBitIdentical:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cells_equal_a_fresh_warm_up(self, cold, tmp_path, jobs):
        spec, _result, _root = cold
        result = run_campaign(
            spec, jobs=jobs, artifact_dir=tmp_path / "artifacts",
            cache_dir=tmp_path / "cache",
        )
        assert result.counters()["warm_starts_built"] == len(DESIGN_ORDER)
        factories = default_design_factories(spec.seed)
        for benchmark in spec.benchmarks:
            records = synthesize_benchmark_trace(
                benchmark, spec.config, spec.trace_cycles, spec.seed
            )
            for design in spec.designs:
                policy = factories[design]()
                if design in result.artifacts:
                    state, _meta = load_policy_artifact(
                        result.artifacts[design]["path"]
                    )
                    policy = clone_policy(factories[design], state)
                reference = run_design_on_trace(
                    policy, records, spec.config, benchmark=benchmark,
                    seed=spec.seed, pretrained=True,
                )
                assert (
                    result.suite[benchmark][design].constructor_dict()
                    == reference.constructor_dict()
                ), f"{benchmark}/{design} (jobs={jobs})"

    def test_parent_cache_replays_every_cell(self, cold, tmp_path):
        # The cell cache keys did not move, so entries written before the
        # snapshots existed replay, and they equal what the cells compute
        # now from their snapshots.
        spec, result, _root = cold
        cache = tmp_path / "cache"
        shutil.copytree(PARENT_CACHE, cache)
        replay = run_campaign(
            spec, jobs=2, artifact_dir=tmp_path / "artifacts", cache_dir=cache,
        )
        counters = replay.counters()
        assert counters["cells_executed"] == 0
        assert counters["cells_cached"] == counters["cells_total"] == 8
        assert _suite_dicts(replay) == _suite_dicts(result)


class TestWarmStartStore:
    def test_warm_rerun_builds_nothing(self, cold):
        spec, result, root = cold
        assert result.counters()["warm_starts_built"] == len(DESIGN_ORDER)
        rerun = run_campaign(
            spec, jobs=2, artifact_dir=root / "artifacts", cache_dir=root / "cache",
        )
        counters = rerun.counters()
        assert counters["warm_starts_built"] == 0
        assert counters["warm_starts_reused"] == len(DESIGN_ORDER)
        assert counters["artifacts_built"] == 0
        assert counters["cells_executed"] == 0
        assert _suite_dicts(rerun) == _suite_dicts(result)

    def test_snapshot_key_covers_its_inputs(self):
        config = tiny_config()
        base = warm_start_key(config, "rl", 0, "a" * 24)
        assert warm_start_key(config, "rl", 1, "a" * 24) != base
        assert warm_start_key(config, "dt", 0, "a" * 24) != base
        assert warm_start_key(config, "rl", 0, "b" * 24) != base
        assert warm_start_key(tiny_config(warmup_cycles=300), "rl", 0, "a" * 24) != base

    def test_snapshot_uses_the_cell_config(self, tmp_path):
        # Cells apply their point's error_scale (1.0) to the campaign
        # config, so the snapshot must be warmed and keyed under it too.
        spec = CampaignSpec(
            config=tiny_config(error_scale=2.0), benchmarks=("swaptions",),
            designs=("crc",), seed=2, trace_cycles=200,
        )
        result = run_campaign(
            spec, artifact_dir=tmp_path / "artifacts", cache_dir=tmp_path / "cache",
        )
        assert result.succeeded and result.report.retries == 0

    def test_restore_moves_the_packet_counter_forward(self, tmp_path):
        # A cell runs in a fresh worker whose packet-id counter may lag
        # the process that warmed the snapshot; new packets must not
        # reuse the ids its in-flight packets carry.
        sim = Simulator(tiny_config(), default_design_factories(0)["crc"](), seed=0)
        sim.warmup()
        save_warm_start(tmp_path / "crc.warm", sim, {"key": "k"})
        saved = Packet._next_pid
        try:
            Packet._next_pid = 0
            load_warm_start(tmp_path / "crc.warm", "k")
            assert Packet._next_pid == saved
        finally:
            Packet._next_pid = max(Packet._next_pid, saved)

    @pytest.mark.parametrize("damage", ["torn", "foreign_version", "wrong_key"])
    def test_suspect_snapshot_is_rebuilt(self, tmp_path, damage):
        spec = CampaignSpec(
            config=tiny_config(), benchmarks=("swaptions",), designs=("crc",),
            seed=2, trace_cycles=200,
        )
        kwargs = {"artifact_dir": tmp_path / "artifacts", "cache_dir": tmp_path / "cache"}
        first = run_campaign(spec, **kwargs)
        path = Path(first.warm_starts["crc"]["path"])
        payload, meta = load_checkpoint(path)
        if damage == "torn":
            path.write_bytes(path.read_bytes()[:-7])
        elif damage == "foreign_version":
            save_checkpoint(path, payload, meta, version=CHECKPOINT_VERSION - 1)
        else:
            save_checkpoint(path, payload, dict(meta, key="0" * 24))
        plan = plan_warm_starts(spec, plan_artifacts(spec, kwargs["artifact_dir"]),
                                kwargs["artifact_dir"])
        assert plan["crc"][2], "a suspect snapshot must be planned for a rebuild"
        second = run_campaign(spec, refresh=True, **kwargs)
        assert second.warm_starts["crc"]["built"]
        assert second.report.executed == 1
        assert _suite_dicts(second) == _suite_dicts(first)
        _payload, rebuilt = load_checkpoint(path)
        assert rebuilt["key"] == first.warm_starts["crc"]["key"]

    def test_refresh_artifacts_rebuilds_artifact_and_snapshot(self, tmp_path):
        spec = CampaignSpec(
            config=tiny_config(), benchmarks=("swaptions",), designs=("crc", "rl"),
            seed=2, trace_cycles=200,
        )
        kwargs = {"artifact_dir": tmp_path / "artifacts", "cache_dir": tmp_path / "cache"}
        run_campaign(spec, **kwargs)
        again = run_campaign(spec, refresh_artifacts=True, **kwargs)
        counters = again.counters()
        assert counters["artifacts_built"] == 1
        assert counters["warm_starts_built"] == 2
        assert counters["warm_starts_reused"] == 0


class TestCellRejectsWrongSnapshot:
    def _snapshots(self, tmp_path):
        spec = CampaignSpec(
            config=tiny_config(), benchmarks=("swaptions",),
            designs=("crc", "arq_ecc"), seed=2, trace_cycles=200,
        )
        artifact_dir = tmp_path / "artifacts"
        result = run_campaign(spec, artifact_dir=artifact_dir, cache_dir=tmp_path / "c")
        return spec, result

    def test_mismatched_key_raises(self, tmp_path):
        spec, result = self._snapshots(tmp_path)
        point = campaign_points(spec, {})[0]  # the crc cell
        wrong = dataclasses.replace(
            point, warm_start_path=result.warm_starts["arq_ecc"]["path"]
        )
        with pytest.raises(ValueError, match="carries key"):
            _eval_campaign(spec.config, wrong)

    def test_missing_snapshot_raises(self, tmp_path):
        spec, _result = self._snapshots(tmp_path)
        point = campaign_points(spec, {})[0]
        with pytest.raises(ValueError, match="no warm-start snapshot"):
            _eval_campaign(spec.config, point)

    def test_mismatched_cell_is_retried_then_quarantined(self, tmp_path):
        spec, result = self._snapshots(tmp_path)
        swapped = {
            design: (Path(result.warm_starts[other]["path"]), "", False)
            for design, other in (("crc", "arq_ecc"), ("arq_ecc", "crc"))
        }
        points = campaign_points(spec, {}, swapped)
        runner = SweepRunner(
            CampaignGrid(config=spec.config, points=points),
            cache_dir=tmp_path / "cache", max_retries=1, retry_base_delay=0.0,
        )
        results = runner.run()
        assert results == [None, None]
        assert sorted(runner.report.quarantined) == sorted(p.label() for p in points)
        assert runner.report.retries == 2
