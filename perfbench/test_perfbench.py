"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q

Ops here are scaled-down copies of the real workloads so the suite runs
in about a minute; the real sizes are exercised by the benchmark itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_program()

from layers import (  # noqa: E402
    CLOSED_LOOP_TARGETS,
    HARNESS_TARGETS,
    LayerTracer,
    Target,
    measure_wrapper_cost,
)
from hostclock import HostClock, ReferenceKernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small(name: str):
    """A scaled-down copy of a workload (same code path, less work)."""
    workload = WORKLOADS[name]
    if name == "faults-rl-blackscholes":
        # the fault plan sits up to 3.4 K cycles into the measured window
        return dataclasses.replace(workload, pretrain_cycles=600, warmup_cycles=200,
                                   trace_cycles=4_000)
    if name == "campaign-grid":
        # epoch samples come from the artifact builds: keep a few epochs
        return dataclasses.replace(workload, pretrain_cycles=1_500, warmup_cycles=200,
                                   trace_cycles=300)
    return dataclasses.replace(workload, pretrain_cycles=600, warmup_cycles=200,
                               trace_cycles=300)


# ----------------------------------------------------------------------
# BENCHMARK.json and metric names
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == run.per_layer_spec()
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert 1 <= BENCHMARK["run_seconds"] <= 60


def test_metric_and_workload_names_are_well_formed():
    entries = BENCHMARK["workloads"] + BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for entry in entries:
        assert NAME.match(entry["name"]), entry["name"]
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")


def test_host_clock_excludes_probe_time_and_restores_the_hook():
    from repro.obs.metrics import MetricRegistry

    original = MetricRegistry.__dict__["snapshot_epoch"]
    with HostClock() as clock:
        before = clock.now()
        for _ in range(5):
            clock.probe()
        assert clock.now() - before < clock.probe_s
        assert clock.probes == 5 and clock.speed > 0
        clock.restart_speed()
        assert clock.speed == 1.0 and clock.probes == 5
    assert MetricRegistry.__dict__["snapshot_epoch"] is original
    assert ReferenceKernel().run() == ReferenceKernel().run()


def test_epoch_tail_is_the_eleventh_largest_sample():
    samples = list(range(1, 101))
    value, percentile = run.epoch_tail(samples)
    assert value == 90 and sum(s > value for s in samples) == 10
    assert percentile == 90.0
    assert run.epoch_tail([3.0, 1.0]) == (3.0, 100.0)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _originals(targets):
    return {(t.owner, t.attr): t.resolve().__dict__[t.attr] for t in targets}


def test_wrappers_restore_the_original_functions():
    targets = CLOSED_LOOP_TARGETS + HARNESS_TARGETS
    before = _originals(targets)
    with LayerTracer(targets):
        during = _originals(targets)
        assert all(during[k] is not before[k] for k in before)
        assert all(during[k].__wrapped__ is before[k] for k in before)
    assert _originals(targets) == before
    with pytest.raises(RuntimeError):
        with LayerTracer(targets), HostClock():
            raise RuntimeError("boom")
    assert _originals(targets) == before


def test_a_missing_target_undoes_the_partial_install():
    targets = CLOSED_LOOP_TARGETS[:3] + (Target("x", "repro.noc.router:Router", "nope"),)
    before = _originals(CLOSED_LOOP_TARGETS[:3])
    with pytest.raises(KeyError):
        with LayerTracer(targets):
            pass
    assert _originals(CLOSED_LOOP_TARGETS[:3]) == before


class _Toy:
    def outer(self, n):
        return [self.inner(i) for i in range(n)]

    def inner(self, i):
        return [i] if i % 2 else []


def test_self_time_useful_counts_and_spans():
    targets = (
        Target("toy", f"{__name__}:_Toy", "outer", span=True),
        Target("toy", f"{__name__}:_Toy", "inner", useful=True),
    )
    tracer = LayerTracer(targets)
    with tracer:
        _Toy().outer(10)
        _Toy().inner(1)
    totals = tracer.totals()
    assert totals["toy.outer"]["calls"] == 1
    assert totals["toy.inner"]["calls"] == 11
    assert totals["toy.inner"]["useful"] == 6
    outer = totals["toy.outer"]
    assert 0 <= outer["self_s"] <= outer["incl_s"]
    edges = {(e["parent"], e["function"]): e["calls"] for e in tracer.edges()}
    assert edges == {("<root>", "toy.outer"): 1, ("toy.outer", "toy.inner"): 10,
                     ("<root>", "toy.inner"): 1}
    assert [(s["name"], s["parent"]) for s in tracer.spans] == [("toy.outer", None)]
    cost = measure_wrapper_cost(calls=2_000, repeats=3)
    assert cost.inside >= 0 and cost.outside >= 0 and cost.total > 0
    net = tracer.totals(cost)["toy.outer"]
    assert net["self_s"] <= outer["self_s"]


# ----------------------------------------------------------------------
# Workloads: digests, gates, smoke runs
# ----------------------------------------------------------------------
def test_closed_loop_digest_is_stable_and_untouched_by_tracing(tmp_path):
    workload = small("paper-rl-canneal")
    with HostClock() as clock:
        first = workload.op(0, tmp_path, clock)
        second = workload.op(0, tmp_path, clock)
        other = workload.op(1, tmp_path, clock)
    assert first.failures == [] and second.failures == []
    assert first.digest == second.digest and other.digest != first.digest
    assert clock.probes > 0 and len(clock.epoch_ms) > 0
    with LayerTracer(CLOSED_LOOP_TARGETS), HostClock() as clock:
        traced = workload.op(0, tmp_path, clock)
    assert traced.digest == first.digest


def test_fault_plan_fires_inside_the_measured_window(tmp_path):
    workload = small("faults-rl-blackscholes")
    op = workload.op(3, tmp_path, HostClock())
    assert op.failures == []
    plan = workload.fault_plan(3)
    assert plan["routing"] == "adaptive"
    assert plan == workload.fault_plan(3) and plan != workload.fault_plan(4)


def test_a_plan_that_never_fires_fails_the_op(tmp_path):
    workload = dataclasses.replace(small("faults-rl-blackscholes"), trace_cycles=300)
    failures = workload.op(3, tmp_path, HostClock()).failures
    assert any("hard-fault plan applied" in reason for reason in failures)


def test_op_seeds_repeat_the_first_seed_last():
    assert run.op_seeds(2, 1) == [2000]
    assert run.op_seeds(2, 2) == [2000, 2000]
    assert run.op_seeds(2, 4) == [2000, 2001, 2002, 2000]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_measure_each_workload(name):
    workload = small(name)
    # two ops of the same seed: the run checks the repeat's digest
    detail, result = run.measure(workload, seed=0, seconds=math.ceil(2 * workload.nominal_op_s))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["failures"] == [] and list(detail["digests"]) == ["0"]


def test_traced_op_reports_layers_the_workload_reaches():
    workload = small("paper-rl-canneal")
    traced = run.traced_op(workload, seed=0)
    values = traced["per_layer"]
    assert traced["failures"] == []
    assert set(values) == {name for name, _ in run.per_layer_spec()}
    assert values["noc.router.step.calls"] > 0 and values["noc.router.step.self_s"] > 0
    assert 0 < values["noc.channel.pop_arrivals.useful_ratio"] <= 1
    for fault_layer in ("faults.hardfaults.tick", "faults.sensors.corrupt",
                        "faults.softerrors.inject", "core.qlearning.scrub",
                        "sim.campaign.ensure_artifact", "sim.sweep.run"):
        assert values[f"{fault_layer}.calls"] == 0
    assert values["trace.wrapper_ns_per_call"] > 0
    assert traced["digest"] == workload.op(0, run.OUT_DIR, HostClock()).digest


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def test_unknown_workload_is_refused():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "bogus"],
        capture_output=True, text=True, cwd=run.ROOT,
    )
    assert proc.returncode != 0 and "unknown workload" in proc.stderr


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-rl-canneal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
