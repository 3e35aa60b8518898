"""Run one workload, check it, and print its metrics; see perfbench/RATIONALE.md.

Untraced (`--trace 0`): set up a fixed number of times (setup_s is the
median), then measure for `--seconds` and print every end-to-end metric of
BENCHMARK.json. Host times are scaled by the gauge (gauge.py); the unscaled
timing metrics follow on `host` lines.

Traced (`--trace 1`): run the workload's fixed minimum of work twice, first
plain and then with the tracer installed, and print every per-layer metric,
including the tracer's overhead: traced wall time over plain wall time, both
without the time spent in checks and in the gauge's reference loop.

Both print the environment and every simulated statistic first, then one
JSON object as the last line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from lutpim import nets, perf
from lutpim.system import SystemConfig

from . import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"

PAPER_RESNET50_MS = 10.0


def _metric_specs(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment(seed: int, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(name: str, run, seconds: float):
    setup, measure, setup_reps = workloads.WORKLOADS[name]
    times = []  # set-up times: (raw s, scaled s)
    for rep in range(setup_reps):
        state = None  # let the previous set-up's state go before building the next
        state, spans = setup(run, run.work / f"setup{rep}")
        times.append(tuple(sum(t) for t in zip(*(s.times for s in spans))))
    m = measure(run, state, time.perf_counter() + seconds)
    m.metrics["setup_s"] = (statistics.median(t[1] for t in times), "s", len(times))
    m.raw["setup_s"] = (statistics.median(t[0] for t in times), "s", len(times))
    m.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB", 1)
    return m.metrics, m.raw, m.simulated


def run_traced(name: str, run):
    setup, measure, _ = workloads.WORKLOADS[name]
    tracer = run.tracer

    def one_pass(dest):
        """Set up and measure once; returns the result and its unchecked wall time."""
        start, checking = time.perf_counter(), tracer.paused_s
        state, _ = setup(run, dest)
        m = measure(run, state, None)
        return m, time.perf_counter() - start - (tracer.paused_s - checking)

    _, plain_s = one_pass(run.work / "plain")
    tracer.install()
    try:
        m, traced_s = one_pass(run.work / "traced")
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"spans-{name}-seed{run.seed}.jsonl")

    calls, self_ms, counters = tracer.calls(), tracer.self_ms(), tracer.counters
    macs = calls["cluster.mac8"]
    # Simulated per-sample figures at the widest precision the workload runs.
    widest = max(int(key.split("bit.")[0]) for key in m.simulated)
    sim = {key.split(".", 1)[1]: v for key, v in m.simulated.items() if key.startswith(f"{widest}bit.")}
    special = {
        "cluster.core_steps_per_mac": counters["cluster.core_steps"] / macs if macs else 0.0,
        "cluster.router_transfers_per_mac": counters["cluster.router_transfers"] / macs if macs else 0.0,
        "lut_core.lookups_per_mac": counters["lut_core.lookups"] / macs if macs else 0.0,
        "system.ledger_events_per_sample": sim["ledger.events"],
        "system.sim_ns_per_sample": sim["ledger.total_ns"],
        "system.sim_pj_per_sample": sim["ledger.total_pj"],
        "perf.sim_ns_per_sample": sim["estimate.latency_ns"],
        "perf.sim_pj_per_sample": sim["estimate.energy_pj"],
        "perf.ledger_gap_ns": sim["gap_ns"],
        "trace.overhead_ratio": traced_s / plain_s,
    }
    metrics = {}
    for metric, unit in _metric_specs("per_layer").items():
        if metric in special:
            value = special[metric]
        elif metric.endswith(".calls"):
            value = calls[metric[: -len(".calls")]]
        elif metric.endswith(".self_ms"):
            value = self_ms.get(metric[: -len(".self_ms")], 0.0)
        else:
            raise KeyError(f"no measurement for per-layer metric {metric!r}")
        metrics[metric] = (float(value), unit, None)
    return metrics, {}, m.simulated


def zoo_table(work: Path) -> list[str]:
    """The zoo x {4, 8, 16} perf.estimate table, as `lutpim bench` writes it."""
    out = work / "zoo.csv"
    rc, text = workloads.call_cli(["bench", "--out", out])
    if rc != 0:
        raise RuntimeError(f"lutpim bench exited {rc}: {text}")
    return out.read_text().splitlines()


def main(args, threads: int) -> int:
    name, seed = args.workload, args.seed
    print("env " + json.dumps(environment(seed, threads), sort_keys=True))
    specs = _metric_specs("per_layer" if args.trace else "end_to_end")
    run = workloads.Run(
        seed=seed,
        sizes=workloads.TINY if args.tiny else workloads.FULL,
        work=WORK / f"{name}-seed{seed}-pid{os.getpid()}",
    )
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, raw, simulated = run_traced(name, run)
        else:
            metrics, raw, simulated = run_untraced(name, run, args.seconds)
        zoo = zoo_table(run.work)
        resnet = perf.estimate(nets.get_network("resnet50"), SystemConfig(), 8)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    for key, value in sorted(simulated.items()):
        print(f"sim {name}.{key} {value!r}")
    for line in zoo:
        print(f"sim zoo {line}")
    print(f"sim resnet50.8bit.latency_ms {resnet.latency_ns / 1e6!r} (paper claims {PAPER_RESNET50_MS} ms)")
    print("note: the latency/energy model is unvalidated against hardware, so no error figure is given")

    result = {}
    for metric, unit in specs.items():
        value, got_unit, count = metrics[metric]
        if got_unit != unit:
            raise ValueError(f"{metric}: measured in {got_unit}, BENCHMARK.json says {unit}")
        value = float(value)
        print(f"metric {metric} {value!r} {unit}" + ("" if count is None else f" n={count}"))
        result[metric] = {"value": value, "unit": unit}
    for metric, (value, unit, _) in raw.items():
        print(f"host {metric} {float(value)!r} {unit} (unscaled host time)")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"checks failed_ratio {ratio!r} ({run.failed} failed of {run.attempted} operations)")
    print(
        json.dumps(
            {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": result}
        )
    )
    return 0
