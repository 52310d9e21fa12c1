"""Paper-workload benchmark: host time of the 8x8 closed loop, end to end
and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-rl-canneal --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout and driven only
through its public API; nothing under ``src/`` is edited.  Host time is
what is measured.  Simulated statistics are deterministic, so they are the
correctness digest, not metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it carries the details (digest, epoch-sample count and the
percentile ``epoch_host_ms.tail`` stands for, gate failures, model
outputs such as the window's ``delivered_fraction``).

``--seconds`` fixes the work, not a deadline: a run makes
``max(1, int(seconds / nominal_op_s))`` ops, where ``nominal_op_s`` is
the op's host time on the reference 2-core host (see ``workloads.py``),
so every commit measures the same ops.  The ops run distinct sub-seeds
of ``--seed`` (one seed alone varies host time by several per cent) and
the last op repeats the first sub-seed, which must reproduce its digest.
Each op is one whole campaign:

* ``paper-rl-canneal`` / ``faults-rl-blackscholes``: one cell run in this
  process, pretrain -> warm-up -> trace;
* ``campaign-grid``: ``run_campaign`` over 4 designs x 2 benchmarks
  (artifacts built here, cells on 2 workers), then a warm replay.

End-to-end metrics (``--trace 0``, no wrappers installed).  Host times
are stated at reference host speed: the run's raw host times divided by
``HostClock.speed``, which a fixed reference kernel timed at every
control epoch measures (see ``hostclock.py``; the raw figures and the
speed are in the details line).  The benchmark's hosts are shared VMs
whose speed swings by up to 2x between runs.

``setup_s``
    median of 7 set-ups: the simulator platform(s) plus the trace(s);
    each repeat is scaled by the host speed probed around it.
``campaign_s``
    median host seconds of an op (pretrain + cells; for campaign-grid the
    cold ``run_campaign``).
``cell_s.p50``
    median host seconds of a cell: warm-up + measured trace (for
    campaign-grid ``PointResult.elapsed``, which also covers the cell's
    trace synthesis and policy clone).
``sim_cycles_per_s``
    simulated cycles of every phase / op host seconds, median over ops.
``pretrain_cycles_per_s``
    pretrain cycles (with drain) / pretrain host seconds; campaign-grid
    uses the artifacts' nominal pretrain cycles and build seconds.
``measure_cycles_per_s``
    cycles of the measured trace window (with drain) / its host seconds;
    campaign-grid: the cells' warm-up + trace cycles / cell seconds.
``epoch_host_ms.p50`` / ``epoch_host_ms.tail``
    host ms between consecutive control-epoch boundaries of one
    simulator, pooled over the run's ops; campaign-grid sees the epochs
    of the artifact builds, which run in this process.  The tail is the
    11th-largest sample: the highest percentile with 10 samples beyond.
``peak_rss_mb``
    peak resident set of this process or any worker it waited for
    (including the reference kernel's few-MB pool).

An op fails (``failed``) if it raises, does not drain, breaks lifetime
message conservation, drops a message on canneal, never fires its fault
plan, quarantines a campaign cell, gets a warm replay that rebuilds or
re-executes anything or returns another suite, or produces a simulated
digest different from an earlier op of the same sub-seed.

``--trace 1`` runs one untraced op here and one traced op in a separate
process (so wrappers never touch a timed run), requires both digests to
match, and prints the per-layer metrics: ``<layer>.<function>.calls`` and
``.self_s`` (net of the measured wrapper cost), plus ratios and counters.
A layer a workload does not reach, or does not run in the traced process
(the NoC layers of campaign-grid, whose cells run in workers), reads 0.
The full trace (per-parent aggregates, phase and epoch spans) is written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
#: probes on each side of a set-up repeat
SETUP_PROBES = 3
#: every run, traced child included, ends well inside this many seconds
RUN_LIMIT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("cell_s.p50", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("pretrain_cycles_per_s", "1/s"),
    ("measure_cycles_per_s", "1/s"),
    ("epoch_host_ms.p50", "ms"),
    ("epoch_host_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def per_layer_spec():
    """(name, unit) of every per-layer metric, in print order."""
    from layers import CLOSED_LOOP_TARGETS, HARNESS_TARGETS

    spec = []
    for target in CLOSED_LOOP_TARGETS + HARNESS_TARGETS:
        spec += [(f"{target.key}.calls", "count"), (f"{target.key}.self_s", "s")]
        if target.span and target.layer == "sim.simulator":
            spec.append((f"{target.key}.incl_s", "s"))
        if target.useful:
            spec.append((f"{target.key}.useful_ratio", "ratio"))
    spec += [("noc.router.step.us_per_call", "us")]
    spec += [
        (f"noc.network.{name}", "count")
        for name in ("channel_visits", "router_visits", "ni_eject_visits",
                     "ni_inject_visits", "fast_forwarded_cycles")
    ]
    spec += [("noc.network.host_us_per_flit_hop", "us")]
    spec += [(f"sim.campaign.ensure_artifact.{d}_s", "s") for d in ("dt", "rl")]
    spec += [
        (f"sim.sweep.cells_{what}", "count")
        for what in ("executed", "cached", "quarantined", "retried")
    ]
    spec += [
        ("sim.sweep.core_busy_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.wrapper_ns_per_call", "ns"),
        ("bench.op_failure_ratio", "ratio"),
    ]
    return spec


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def epoch_tail(samples):
    """(11th-largest sample, its nearest-rank percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _pooled_rate(pairs) -> float:
    """Total simulated cycles / total host seconds of (cycles, s) pairs."""
    pairs = list(pairs)
    return sum(c for c, _ in pairs) / sum(s for _, s in pairs)


def peak_rss_mb() -> float:
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return rss_kb / 1024.0


def end_to_end_metrics(setup_s, ops, epoch_ms, speed=1.0):
    """Every end-to-end metric; op host times are divided by the run's
    host ``speed`` (rates multiplied), i.e. stated at reference host
    speed.  ``setup_s`` comes already scaled, repeat by repeat."""
    tail, _ = epoch_tail(epoch_ms)
    values = {
        "setup_s": statistics.median(setup_s),
        "campaign_s": statistics.median(op.wall_s for op in ops) / speed,
        "cell_s.p50": statistics.median(s for op in ops for s in op.cell_s) / speed,
        "sim_cycles_per_s": _pooled_rate((op.sim_cycles, op.wall_s) for op in ops) * speed,
        "pretrain_cycles_per_s": _pooled_rate(op.pretrain for op in ops) * speed,
        "measure_cycles_per_s": _pooled_rate(op.measure for op in ops) * speed,
        "epoch_host_ms.p50": statistics.median(epoch_ms) / speed,
        "epoch_host_ms.tail": tail / speed,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def op_seeds(seed: int, count: int):
    """Seeds of a run's ops: distinct sub-seeds of ``seed``, the last op
    repeating the first so every run checks that an op reproduces."""
    distinct = max(1, count - 1)
    return [seed * 1_000 + i % distinct for i in range(count)]


def _run_ops(workload, seeds, clock):
    """Run one op per seed; returns ([(seed, OpResult)], error strings)."""
    ops, errors = [], []
    for seed in seeds:
        clock.probe()
        try:
            ops.append((seed, workload.op(seed, OUT_DIR, clock)))
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc()
            errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
    return ops, errors


def _gate(ops, errors):
    """Failed-op count and failure strings; an op whose digest differs
    from the first op with the same seed fails."""
    failures = list(errors)
    failed = len(errors)
    first = {}
    for seed, op in ops:
        reasons = list(op.failures)
        reference = first.setdefault(seed, op.digest)
        if op.digest != reference:
            reasons.append(f"digest {op.digest} != {reference} of the same seed")
        if reasons:
            failed += 1
            failures += [f"seed {seed}: {reason}" for reason in reasons]
    return failed, failures


def timed_setup(workload, seed: int, clock):
    """Host seconds of each set-up repeat, scaled by the host speed probed
    just before and after it (a repeat is too short for the run's mean
    speed to describe it), and unscaled."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # every repeat starts from the same heap state
        before = statistics.mean(clock.probe() for _ in range(SETUP_PROBES))
        t0 = clock.now()
        workload.setup(seed)
        elapsed = clock.now() - t0
        after = statistics.mean(clock.probe() for _ in range(SETUP_PROBES))
        scaled.append(elapsed * 2 / (before + after))
        raw.append(elapsed)
    return scaled, raw


def measure(workload, seed: int, seconds: int):
    from hostclock import HostClock

    seeds = op_seeds(seed, max(1, int(seconds / workload.nominal_op_s)))
    with HostClock() as clock:
        setup_s, raw_setup_s = timed_setup(workload, seeds[0], clock)
        clock.restart_speed()  # the ops' host speed, set-up excluded
        ops, errors = _run_ops(workload, seeds, clock)
        clock.probe()
    failed, failures = _gate(ops, errors)
    if not ops or not clock.epoch_ms:
        raise SystemExit(f"perfbench: no op completed: {failures}")
    _, percentile = epoch_tail(clock.epoch_ms)
    results = [op for _, op in ops]
    raw = end_to_end_metrics(raw_setup_s, results, clock.epoch_ms)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "digests": {str(s): op.digest for s, op in ops},
        "host_speed": clock.speed,
        "probes": clock.probes,
        "raw_metrics": {name: m["value"] for name, m in raw.items()},
        "epoch_samples": len(clock.epoch_ms),
        "epoch_tail_percentile": round(percentile, 2),
        "op_failure_ratio": failed / len(seeds),
        "failures": failures,
        "model": {str(s): op.detail for s, op in ops},
    }
    result = {
        "correct": failed == 0,
        "attempted": len(seeds),
        "failed": failed,
        "metrics": end_to_end_metrics(setup_s, results, clock.epoch_ms, clock.speed),
    }
    return detail, result


def traced_op(workload, seed: int):
    """One op under the layer wrappers (runs in its own process)."""
    from hostclock import HostClock
    from layers import CLOSED_LOOP_TARGETS, HARNESS_TARGETS, LayerTracer, measure_wrapper_cost
    from workloads import Campaign

    cost = measure_wrapper_cost()
    targets = HARNESS_TARGETS if isinstance(workload, Campaign) else CLOSED_LOOP_TARGETS
    tracer = LayerTracer(targets)
    with tracer, HostClock(tracer) as clock:
        for _ in range(SETUP_REPEATS):
            clock.probe()
        op = workload.op(seed, OUT_DIR, clock)
        for _ in range(SETUP_REPEATS):
            clock.probe()
    totals = tracer.totals(cost)
    values = layer_values(totals, tracer.spans, op, workload, cost, clock.speed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}-s{seed}.json"
    with open(trace_file, "w") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "wrapper_cost_s": {"inside": cost.inside, "outside": cost.outside},
                "host_speed": clock.speed,
                "totals": totals,
                "per_parent": tracer.edges(),
                "spans": tracer.spans,
                "model": op.detail,
            },
            handle,
            indent=1,
        )
    return {
        "digest": op.digest,
        "failures": op.failures,
        "sim_cycles_per_s": op.sim_cycles / op.wall_s * clock.speed,
        "per_layer": values,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def layer_values(totals, spans, op, workload, cost, speed=1.0):
    """Every per-layer metric of one traced op (0 where not reached);
    host times are divided by the host ``speed``."""
    values = {name: 0.0 for name, _ in per_layer_spec()}
    for key, row in totals.items():
        values[f"{key}.calls"] = row["calls"]
        values[f"{key}.self_s"] = row["self_s"]
        if f"{key}.incl_s" in values:
            values[f"{key}.incl_s"] = row["incl_s"]
        if f"{key}.useful_ratio" in values and row["calls"]:
            values[f"{key}.useful_ratio"] = row["useful"] / row["calls"]
    step = totals.get("noc.router.step")
    if step and step["calls"]:
        values["noc.router.step.us_per_call"] = 1e6 * step["self_s"] / step["calls"]
    for name, count in op.detail.get("activity", {}).items():
        values[f"noc.network.{name}"] = count
    cycle, send = totals.get("noc.network.cycle"), totals.get("noc.channel.send")
    if cycle and send and send["calls"]:
        values["noc.network.host_us_per_flit_hop"] = 1e6 * cycle["incl_s"] / send["calls"]
    for span in spans:
        if span["name"] == "sim.campaign.ensure_artifact":
            name = f"sim.campaign.ensure_artifact.{span['label']}_s"
            values[name] = values.get(name, 0.0) + span["end"] - span["start"]
    reports = [op.detail[k] for k in ("report", "warm_report") if k in op.detail]
    if reports:
        values["sim.sweep.cells_executed"] = sum(r["executed"] for r in reports)
        values["sim.sweep.cells_cached"] = sum(r["from_cache"] for r in reports)
        values["sim.sweep.cells_quarantined"] = sum(r["quarantined"] for r in reports)
        values["sim.sweep.cells_retried"] = sum(r["retries"] for r in reports)
        busy = sum(op.detail["artifact_s"].values()) + sum(op.cell_s)
        values["sim.sweep.core_busy_ratio"] = busy / (workload.jobs * op.wall_s)
    values["trace.wrapper_ns_per_call"] = cost.total * 1e9
    for name, unit in per_layer_spec():
        if unit in ("s", "us", "ns"):
            values[name] /= speed
    return values


def trace_run(workload, seed: int):
    """Untraced op here, traced op in a child process; per-layer metrics."""
    from hostclock import HostClock

    started = time.monotonic()
    op_seed = op_seeds(seed, 1)[0]
    with HostClock() as clock:
        ops, errors = _run_ops(workload, [op_seed], clock)
        clock.probe()
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
         "--seed", str(op_seed), "--traced-op"],
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)),
        cwd=ROOT,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: traced op exited with {child.returncode}")
    traced = json.loads(lines[-1])
    untraced = ops[0][1] if ops else None
    failed, failures = _gate(ops, errors)
    attempted = 2
    traced_failures = list(traced["failures"])
    if untraced and traced["digest"] != untraced.digest:
        traced_failures.append(
            f"traced digest {traced['digest']} != untraced {untraced.digest}"
        )
    if traced_failures:
        failed += 1
        failures += [f"traced op: {reason}" for reason in traced_failures]
    values = traced["per_layer"]
    if untraced:
        untraced_rate = untraced.sim_cycles / untraced.wall_s * clock.speed
        values["trace.overhead_ratio"] = untraced_rate / traced["sim_cycles_per_s"]
    values["bench.op_failure_ratio"] = failed / attempted
    detail = {
        "workload": workload.name,
        "seed": seed,
        "op_seed": op_seed,
        "digest": untraced.digest if untraced else None,
        "traced_digest": traced["digest"],
        "trace_file": traced["trace_file"],
        "failures": failures,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in per_layer_spec()
        },
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-op", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.traced_op:
        print(json.dumps(traced_op(workload, args.seed)))
        return 0
    if args.trace:
        detail, result = trace_run(workload, args.seed)
    else:
        detail, result = measure(workload, args.seed, args.seconds)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
