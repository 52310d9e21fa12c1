"""Tests for the paper-figure campaign runner and its report tables."""

import pytest

from repro.baselines import DecisionTreePolicy
from repro.obs import MetricRegistry, TraceBuffer
from repro.sim import (
    REPORT_SCHEMA,
    CampaignSpec,
    artifact_key,
    campaign_report,
    default_design_factories,
    ensure_artifact,
    load_policy_artifact,
    pretrain_policy,
    read_policy_artifact_meta,
    render_report_markdown,
    run_campaign,
    run_parsec_suite,
    save_checkpoint,
    scaled_config,
)
from repro.cli import main
from repro.sim import campaign as campaign_module
from repro.sim import sweep as sweep_module
from repro.sim.campaign import campaign_points, plan_artifacts
from repro.sim.checkpoint import CheckpointError
from repro.sim.metrics import RunResult
from repro.sim.sweep import SweepPoint, _eval_campaign, point_cache_key


def tiny_config(**overrides):
    defaults = dict(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=1_500,
        warmup_cycles=200,
    )
    defaults.update(overrides)
    return scaled_config(**defaults)


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
class TestArtifacts:
    def test_build_then_reuse(self, tmp_path):
        config = tiny_config()
        path, key, built = ensure_artifact(config, "rl", 0, tmp_path)
        assert built and path.exists()
        meta = read_policy_artifact_meta(path)
        assert meta["key"] == key
        assert meta["design"] == "rl"

        path2, key2, built2 = ensure_artifact(config, "rl", 0, tmp_path)
        assert (path2, key2) == (path, key)
        assert not built2  # warm path: no re-pretraining

    def test_refresh_rebuilds(self, tmp_path):
        config = tiny_config()
        ensure_artifact(config, "rl", 0, tmp_path)
        _, _, built = ensure_artifact(config, "rl", 0, tmp_path, refresh=True)
        assert built

    def test_key_covers_config_design_and_seed(self):
        config = tiny_config()
        base = artifact_key(config, "rl", 0)
        assert artifact_key(config, "rl", 1) != base
        assert artifact_key(config, "dt", 0) != base
        assert artifact_key(tiny_config(pretrain_cycles=1_600), "rl", 0) != base

    def test_torn_artifact_is_rebuilt(self, tmp_path):
        config = tiny_config()
        path, _, _ = ensure_artifact(config, "rl", 0, tmp_path)
        path.write_bytes(path.read_bytes()[:-7])  # tear the container
        with pytest.raises(CheckpointError):
            load_policy_artifact(path)
        _, _, built = ensure_artifact(config, "rl", 0, tmp_path)
        assert built

    def test_foreign_version_container_rejected(self, tmp_path):
        # A full-simulation checkpoint is not a policy artifact even
        # though it shares the container format.
        path = tmp_path / "imposter.ckpt"
        save_checkpoint(str(path), {"state": {"policy": "rl"}}, meta={})
        with pytest.raises(CheckpointError):
            load_policy_artifact(str(path))

    def test_clone_from_artifact_restores_policy(self, tmp_path):
        config = tiny_config()
        path, _, _ = ensure_artifact(config, "dt", 0, tmp_path)
        state, meta = load_policy_artifact(path)
        clone = DecisionTreePolicy()
        clone.load_state(state)
        assert clone.to_state() == state
        assert meta["policy"] == clone.name

    def test_only_trainable_designs_get_artifacts(self, tmp_path):
        spec = CampaignSpec(
            config=tiny_config(),
            benchmarks=("swaptions",),
            designs=("crc", "arq_ecc", "rl"),
        )
        artifacts = plan_artifacts(spec, tmp_path)
        assert set(artifacts) == {"rl"}
        assert artifacts["rl"][2]  # missing, so planned for a build
        points = campaign_points(spec, artifacts)
        assert len(points) == 3
        by_design = {p.design: p for p in points}
        assert by_design["crc"].artifact_path == ""
        assert by_design["rl"].artifact_path.endswith(".ckpt")


# ----------------------------------------------------------------------
# Campaign execution
# ----------------------------------------------------------------------
BENCHMARKS = ("swaptions", "blackscholes")
DESIGNS = ("crc", "rl")


@pytest.fixture(scope="module")
def campaign_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign")
    spec = CampaignSpec(
        config=tiny_config(), benchmarks=BENCHMARKS, designs=DESIGNS,
        seed=3, trace_cycles=400,
    )
    result = run_campaign(
        spec, jobs=2,
        artifact_dir=root / "artifacts", cache_dir=root / "cache",
    )
    return spec, result, root


class TestRunCampaign:
    def test_grid_shape(self, campaign_setup):
        spec, result, _root = campaign_setup
        assert result.succeeded
        assert set(result.suite) == set(BENCHMARKS)
        for results in result.suite.values():
            assert set(results) == set(DESIGNS)
        counters = result.counters()
        assert counters["cells_total"] == len(BENCHMARKS) * len(DESIGNS)
        assert counters["artifacts_built"] == 1  # rl only

    def test_matches_run_parsec_suite(self, campaign_setup):
        spec, result, _root = campaign_setup
        factories = default_design_factories(spec.seed)
        reference = run_parsec_suite(
            spec.config, spec.trace_cycles, benchmarks=BENCHMARKS,
            seed=spec.seed, designs={d: factories[d] for d in DESIGNS},
        )
        for bench in reference:
            for design in reference[bench]:
                assert (
                    result.suite[bench][design].constructor_dict()
                    == reference[bench][design].constructor_dict()
                ), f"{bench}/{design} diverged from run_parsec_suite"

    def test_warm_rerun_is_pure_cache(self, campaign_setup):
        spec, _result, root = campaign_setup
        rerun = run_campaign(
            spec, jobs=1,
            artifact_dir=root / "artifacts", cache_dir=root / "cache",
        )
        counters = rerun.counters()
        assert counters["artifacts_built"] == 0
        assert counters["artifacts_reused"] == 1
        assert counters["cells_executed"] == 0
        assert counters["cells_cached"] == counters["cells_total"]

    def test_serial_cold_run_bit_identical(self, campaign_setup):
        # jobs=1 with a cold cache (shared artifacts) must reproduce the
        # jobs=2 grid exactly.
        spec, result, root = campaign_setup
        serial = run_campaign(
            spec, jobs=1,
            artifact_dir=root / "artifacts", cache_dir=root / "cache-serial",
        )
        for bench in result.suite:
            for design in result.suite[bench]:
                assert (
                    serial.suite[bench][design].constructor_dict()
                    == result.suite[bench][design].constructor_dict()
                )

    def test_registry_and_tracer_observe_campaign(self, campaign_setup):
        spec, _result, root = campaign_setup
        registry = MetricRegistry()
        tracer = TraceBuffer()
        run_campaign(
            spec, artifact_dir=root / "artifacts", cache_dir=root / "cache",
            registry=registry, tracer=tracer,
        )
        scalars = registry.scalars()
        assert scalars["campaign.cells_total"] == len(BENCHMARKS) * len(DESIGNS)
        kinds = {ev.kind for ev in tracer.events(["campaign"])}
        assert "artifact_reuse" in kinds
        assert "complete" in kinds


# ----------------------------------------------------------------------
# One supervised pass: artifact tasks beside the cells
# ----------------------------------------------------------------------
#: artifact and cell cache keys of one fixed campaign cell (rl on
#: swaptions, seed 3, tiny_config) and of its stateless sibling (crc),
#: recorded before artifact builds moved into the runner's task list
PINNED_ARTIFACT_KEY = "9d44cc2d339b2094f972655b"
PINNED_CELL_KEYS = {"crc": "062b18eaedb634f66e8543e4", "rl": "8f73d10e0e034a270ce26ef9"}

def _spec():
    """Both trainable designs plus one stateless design."""
    return CampaignSpec(
        config=tiny_config(), benchmarks=BENCHMARKS, designs=("crc", "dt", "rl"),
        seed=3, trace_cycles=300,
    )


def _suite_dicts(result):
    return {
        bench: {design: run.constructor_dict() for design, run in row.items()}
        for bench, row in result.suite.items()
    }


class TestCampaignPass:
    def test_cell_cache_keys_are_pinned(self, tmp_path):
        spec = CampaignSpec(
            config=tiny_config(), benchmarks=("swaptions",), designs=("crc", "rl"),
            seed=3, trace_cycles=400,
        )
        points = campaign_points(spec, plan_artifacts(spec, tmp_path))
        assert points[1].artifact_hash == PINNED_ARTIFACT_KEY
        assert {
            point.design: point_cache_key(spec.config, point) for point in points
        } == PINNED_CELL_KEYS

    def test_worker_builds_equal_in_process_builds(self, tmp_path):
        spec = _spec()
        runs = {}
        for jobs in (2, 1):
            tracer = TraceBuffer()
            result = run_campaign(
                spec, jobs=jobs, artifact_dir=tmp_path / f"artifacts-{jobs}",
                cache_dir=tmp_path / f"cache-{jobs}", tracer=tracer,
            )
            assert result.succeeded
            assert result.report.retries == 0  # no cell launched before its artifact
            assert result.counters()["artifacts_built"] == 2
            builds = [
                ev.data["design"] for ev in tracer.events(["campaign"])
                if ev.kind == "artifact_build"
            ]
            assert builds == ["dt", "rl"]  # one per trainable design
            runs[jobs] = result
        for design in ("dt", "rl"):
            worker_state, _ = load_policy_artifact(runs[2].artifacts[design]["path"])
            serial_state, _ = load_policy_artifact(runs[1].artifacts[design]["path"])
            assert worker_state == serial_state, design
        assert _suite_dicts(runs[2]) == _suite_dicts(runs[1])


def _fail_dt_pretrain(monkeypatch, tmp_path):
    """Make every dt pretrain raise, and log each cell that launches (the
    patches reach forked workers too)."""
    real_pretrain = campaign_module.pretrain_policy
    real_point = sweep_module.run_sweep_point
    launched = tmp_path / "launched.txt"

    def pretrain(policy, config, seed=0):
        if isinstance(policy, DecisionTreePolicy):
            raise RuntimeError("dt pretrain failed")
        return real_pretrain(policy, config, seed=seed)

    def logged(config, point):
        with open(launched, "a", encoding="utf-8") as handle:
            handle.write(point.label() + "\n")
        return real_point(config, point)

    monkeypatch.setattr("repro.sim.campaign.pretrain_policy", pretrain)
    monkeypatch.setattr("repro.sim.sweep.run_sweep_point", logged)
    return launched


class TestArtifactTaskFailure:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_pretrain_quarantines_only_its_cells(
        self, tmp_path, monkeypatch, jobs
    ):
        launched = _fail_dt_pretrain(monkeypatch, tmp_path)
        spec = _spec()
        artifact_dir = tmp_path / "artifacts"
        tracer = TraceBuffer()
        result = run_campaign(
            spec, jobs=jobs, artifact_dir=artifact_dir,
            cache_dir=tmp_path / "cache", max_retries=1, tracer=tracer,
        )
        points = campaign_points(spec, plan_artifacts(spec, artifact_dir))
        dt_cells = sorted(p.label() for p in points if p.design == "dt")
        other_cells = sorted(p.label() for p in points if p.design != "dt")
        assert not result.succeeded
        assert sorted(result.report.quarantined) == dt_cells
        assert sorted(launched.read_text().split()) == other_cells  # dt never launched
        assert result.report.executed == len(other_cells)
        assert result.report.retries == 0  # the build's retry is not a cell's
        for row in result.suite.values():
            assert set(row) == {"crc", "rl"}
        assert set(result.artifacts) == {"rl"}
        counters = result.counters()
        assert counters["artifacts_built"] == 1
        assert counters["cells_quarantined"] == len(dt_cells)
        builds = [
            ev.data["design"] for ev in tracer.events(["campaign"])
            if ev.kind == "artifact_build"
        ]
        assert builds == ["rl"]
        assert not list(artifact_dir.glob("dt-*"))

    def test_cli_exits_1(self, tmp_path, monkeypatch, capsys):
        _fail_dt_pretrain(monkeypatch, tmp_path)
        argv = [
            "campaign", "--benchmarks", "swaptions", "--designs", "crc,dt",
            "--width", "3", "--height", "3", "--epoch", "100",
            "--pretrain", "1200", "--warmup", "200", "--trace-cycles", "300",
            "--cache-dir", str(tmp_path / "cache"),
            "--artifact-dir", str(tmp_path / "artifacts"),
            "--jobs", "2", "--retries", "0", "--json",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "0 artifact(s) built, 0 reused; 1 cell(s) simulated" in err
        assert "1 cell(s) quarantined: campaign:dt:swaptions" in err


class TestCampaignCell:
    def test_trainable_cell_without_artifact_raises(self):
        point = SweepPoint(
            kind="campaign", design="rl", traffic="swaptions", seed=0, cycles=200,
        )
        with pytest.raises(ValueError, match="no pretrained artifact"):
            _eval_campaign(tiny_config(), point)

    def test_artifact_hash_mismatch_raises(self, tmp_path):
        config = tiny_config()
        path, key, _ = ensure_artifact(config, "rl", 0, tmp_path)
        point = SweepPoint(
            kind="campaign", design="rl", traffic="swaptions", seed=0,
            cycles=200, artifact_hash="deadbeef" * 3, artifact_path=str(path),
        )
        with pytest.raises(ValueError, match="key"):
            _eval_campaign(config, point)


# ----------------------------------------------------------------------
# Decision-tree state round trip
# ----------------------------------------------------------------------
class TestDecisionTreeState:
    def test_pretrained_round_trip(self):
        policy = DecisionTreePolicy()
        pretrain_policy(policy, tiny_config(), seed=2)
        state = policy.to_state()
        assert state["frozen"]
        clone = DecisionTreePolicy()
        clone.load_state(state)
        assert clone.to_state() == state

    def test_rejected_state_keeps_model(self):
        policy = DecisionTreePolicy()
        before = policy.to_state()
        policy.load_state({"thresholds": [3.0, 2.0, 1.0]})  # not increasing
        assert policy.to_state() == before


# ----------------------------------------------------------------------
# Report tables
# ----------------------------------------------------------------------
def make_result(design, benchmark, *, cycles=1_000, latency=10.0, retx=4,
                dynamic_pj=1e6, static_pj=5e5, flits=100):
    return RunResult(
        design=design, benchmark=benchmark, execution_cycles=cycles,
        mean_latency=latency, packets_delivered=90, flits_delivered=flits,
        packet_retransmissions=retx, flit_retransmissions=0,
        corrected_errors=0, escaped_errors=0, silent_corruptions=0,
        duplicate_flits=0, dynamic_energy_pj=dynamic_pj,
        static_energy_pj=static_pj, clock_hz=1e9,
    )


class TestReport:
    def suite(self):
        return {
            "canneal": {
                "crc": make_result("crc", "canneal", cycles=1_000, latency=10.0),
                "rl": make_result("rl", "canneal", cycles=500, latency=8.0),
            },
            "x264": {
                "crc": make_result("crc", "x264", cycles=2_000, latency=20.0),
                "rl": make_result("rl", "x264", cycles=1_000, latency=15.0),
            },
        }

    def test_structure_and_values(self):
        report = campaign_report(self.suite())
        assert report["schema"] == REPORT_SCHEMA
        assert report["baseline"] == "crc"
        assert report["benchmarks"] == ["canneal", "x264"]
        assert set(report["figures"]) == {"fig6", "fig7", "fig8", "fig9", "fig10"}
        fig8 = report["figures"]["fig8"]
        assert fig8["per_benchmark"]["canneal"]["rl"] == pytest.approx(0.8)
        assert fig8["geomean"]["crc"] == pytest.approx(1.0)
        # Fig 7 is a speed-UP: crc_cycles / design_cycles, so halving the
        # cycle count doubles the reported ratio.
        fig7 = report["figures"]["fig7"]
        assert fig7["direction"] == "higher"
        assert fig7["per_benchmark"]["canneal"]["rl"] == pytest.approx(2.0)
        assert fig7["geomean"]["rl"] == pytest.approx(2.0)

    def test_zero_baseline_yields_none_not_zero(self):
        suite = self.suite()
        # A zero-energy baseline makes energy efficiency ratios undefined.
        suite["canneal"]["crc"] = make_result(
            "crc", "canneal", dynamic_pj=0.0, static_pj=0.0
        )
        report = campaign_report(suite)
        fig9 = report["figures"]["fig9"]
        assert fig9["per_benchmark"]["canneal"]["rl"] is None
        assert fig9["per_benchmark"]["x264"]["rl"] is not None
        # The geomean skips the undefined benchmark instead of zeroing.
        assert fig9["geomean"]["rl"] == pytest.approx(
            fig9["per_benchmark"]["x264"]["rl"]
        )

    def test_benchmark_missing_baseline_dropped(self):
        suite = self.suite()
        del suite["x264"]["crc"]  # e.g. a quarantined baseline cell
        report = campaign_report(suite)
        assert "x264" not in report["figures"]["fig8"]["per_benchmark"]
        assert report["figures"]["fig8"]["geomean"]["rl"] == pytest.approx(0.8)

    def test_markdown_render(self):
        report = campaign_report(self.suite())
        text = render_report_markdown(report)
        assert "| Figure | Direction | crc | rl |" in text
        assert "Execution speed-up (fig7)" in text
        assert "| **geomean** |" in text
        # Undefined cells render as n/a, never 0.000.
        suite = self.suite()
        suite["canneal"]["crc"] = make_result(
            "crc", "canneal", dynamic_pj=0.0, static_pj=0.0
        )
        assert "n/a" in render_report_markdown(campaign_report(suite))
