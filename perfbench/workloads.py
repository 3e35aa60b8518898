"""The benchmark's three workloads, each a closed loop of one client.

A workload has a set-up, which the harness times and repeats, and a measure
step that runs in rounds until its deadline and at least its fixed minimum of
rounds (only that minimum when the deadline is None). Every round runs each
timed operation of the workload. Checks against the oracle run outside every
timed region and with the tracer paused.

Host speed on the measuring machine drifts by tens of percent over seconds
and minutes. So every timed span is bracketed by the gauge's reference loop
and scaled to a nominal host speed (see gauge.py), and each timing metric is
the median over the run of its scaled per-round or per-call value. The same
median of raw host time is reported beside it, on `host` lines.

lutpim is always called through module attributes (`engine.infer_lut`,
`cli.main`, ...) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import numpy as np

from lutpim import binviz, cli, cluster, engine, nets, perf, weights
from lutpim.nets import LayerSpec
from lutpim.system import SystemConfig

from . import oracle
from .gauge import Gauge
from .tracing import Tracer

# Calibration inputs for engine.evaluate's LUT backends, passed explicitly so
# the oracle can rebuild the same quantized model.
EVAL_CAL_COUNT = 32
# Inputs used to calibrate activations in the two synthetic-weight workloads.
CAL_INPUTS = 2
# A mobilenet sample takes seconds, so the median of few rounds is not
# steady: an untraced run has at least Sizes.mobilenet_rounds rounds, even past
# its deadline. A traced pass needs only enough rounds to exercise every call.
TRACED_MOBILENET_ROUNDS = 2
# CLI requests share one gauge span per group of this many.
REQUEST_GROUP = 10
# The cluster workload's network shape is drawn once from this seed, so the
# work per sample, and with it every rate, does not depend on --seed.
SHAPE_SEED = 0


@dataclass(frozen=True)
class Sizes:
    train_per_class: int
    held_out_per_class: int
    slice_size: int  # held-out samples per engine.evaluate call
    min_requests: int
    mobilenet: str  # "mobilenet_v2", or "tiny" for a small depthwise net
    mobilenet_rounds: int  # minimum rounds of an untraced run
    sweep_operands: int  # the sweep runs every (a, b) in range(n) x range(n)
    sweep_rows: int  # sweep rows (values of a) per round


FULL = Sizes(100, 500, 100, 1000, "mobilenet_v2", 10, 256, 32)
# For the benchmark's own tests only: same code paths, seconds not minutes.
TINY = Sizes(10, 20, 10, 10, "tiny", 2, 16, 4)


@dataclass
class Run:
    """One workload run: its inputs' seed, sizes, scratch directory, tally."""

    seed: int
    sizes: Sizes
    work: Path
    tracer: Tracer = field(default_factory=Tracer)
    attempted: int = 0
    failed: int = 0

    def __post_init__(self):
        self.gauge = Gauge(self.tracer.paused)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"check failed: {what} ({failed} of {attempted})", file=sys.stderr)


@dataclass
class Measured:
    metrics: dict  # name -> (value, unit, sample count); host times scaled by the gauge
    raw: dict  # the timing metrics again, from raw host time
    simulated: dict  # "<bits>bit.<statistic>" -> exact value for one sample


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _more(done: int, minimum: int, deadline) -> bool:
    return done < minimum or (deadline is not None and time.perf_counter() < deadline)


def measured(host_metrics, other: dict, simulated: dict) -> Measured:
    """host_metrics(w) gives the timing metrics from raw (w=0) or scaled (w=1) times."""
    return Measured({**host_metrics(1), **other}, host_metrics(0), simulated)


def call_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def _setup_cli(argv) -> None:
    rc, out = call_cli(argv)
    if rc != 0:
        raise RuntimeError(f"set-up step `lutpim {' '.join(map(str, argv))}` exited {rc}: {out}")


def _ledger_stats(ledger) -> dict:
    s = ledger.summary()
    stats = {f"ledger.{k}": s[k] for k in ("total_ns", "total_pj", "compute_ns", "comm_ns", "compute_pj", "comm_pj")}
    stats["ledger.mac_count"] = ledger.mac_count
    stats["ledger.events"] = len(ledger.events)
    for cat, count in sorted(ledger.event_counts().items()):
        stats[f"ledger.count.{cat}"] = count
    return stats


def _same_ledger(ledger, reference) -> bool:
    return _ledger_stats(ledger) == _ledger_stats(reference)


def _simulated(net, bits: int, ledger) -> dict:
    """Ledger and perf.estimate totals for one sample, keyed '<bits>bit.*'."""
    report = perf.estimate(net, SystemConfig(precision_bits=bits), bits)
    stats = _ledger_stats(ledger)
    stats.update(
        {
            "estimate.total_macs": report.total_macs,
            "estimate.latency_ns": report.latency_ns,
            "estimate.energy_pj": report.energy_pj,
            "gap_ns": abs(stats["ledger.total_ns"] - report.latency_ns),
        }
    )
    return {f"{bits}bit.{k}": v for k, v in stats.items()}


def _class_counts(labels, predicted) -> tuple[int, int, int, int]:
    y, p = np.asarray(labels), np.asarray(predicted)
    return (
        int(np.sum((y == 1) & (p == 1))),
        int(np.sum((y == 0) & (p == 1))),
        int(np.sum((y == 0) & (p == 0))),
        int(np.sum((y == 1) & (p == 0))),
    )


# ---------------------------------------------------------------------------
# malware_corpus: the paper's demo on tinymalnet


def setup_malware(run: Run, dest: Path):
    """The workload's state, and the gauge spans that timed each step."""
    s = run.sizes
    train, held = dest / "train", dest / "held"
    weights_path, weights8_path = dest / "w.pimw", dest / "w8.pimw"
    n_train, n_held = str(s.train_per_class), str(s.held_out_per_class)
    spans = []
    for argv in (
        ["corpus", "--out", train, "--benign", n_train, "--malware", n_train, "--seed", 2 * run.seed],
        ["corpus", "--out", held, "--benign", n_held, "--malware", n_held, "--seed", 2 * run.seed + 1],
        ["fit", "--corpus", train / "manifest.csv", "--out", weights_path, "--seed", run.seed],
        ["quantize", "--weights", weights_path, "--corpus", train / "manifest.csv", "--precision", 8,
         "--out", weights8_path],
    ):
        with run.gauge.span() as g:
            _setup_cli(argv)
        spans.append(g)
    with run.gauge.span() as g:
        paths, labels = [], []
        for line in (held / "manifest.csv").read_text().splitlines()[1:]:
            name, label = line.split(",")[:2]
            paths.append(held / name)
            labels.append(int(label == "malware"))
        state = SimpleNamespace(
            net=nets.get_network("tinymalnet"),
            ws=weights.load_weights(weights_path),
            weights8=weights8_path,
            paths=paths,
            inputs=[binviz.sample_to_input(p.read_bytes()) for p in paths],
            labels=np.array(labels),
        )
    spans.append(g)
    return state, spans


def _parse_simulate(out: str) -> dict:
    """`key: value` pairs of `lutpim simulate` output; the first line has two."""
    lines = out.splitlines()
    fields = dict(line.split(": ", 1) for line in lines[1:] if ": " in line)
    if lines:
        for part in lines[0].split("  "):
            key, _, value = part.partition(": ")
            fields[key] = value
    return fields


def measure_malware(run: Run, st, deadline) -> Measured:
    # Each round evaluates one slice of the held-out corpus in every backend,
    # then sends a batch of single-binary CLI requests. Interleaving spreads
    # every metric over the whole run, so drifts in host speed hit them alike.
    n, size = len(st.inputs), run.sizes.slice_size
    slices = [slice(i, i + size) for i in range(0, n, size)]
    per_round = math.ceil(run.sizes.min_requests / len(slices))
    argv = ["simulate", "--weights", str(st.weights8), "--precision", "8", "--input"]
    # evals: (slice index, bits, report, (raw s, scaled s)); request_ms: (raw, scaled)
    evals, request_ms, outputs = [], [], []
    while _more(len(evals) // 3, len(slices), deadline):
        k = (len(evals) // 3) % len(slices)
        sl = slices[k]
        for bits in (None, 8, 16):
            with run.gauge.span() as g, run.tracer.op("bench.evaluate", request=len(evals)):
                report = engine.evaluate(
                    st.net, st.ws, st.inputs[sl], st.labels[sl], bits=bits, cal_count=EVAL_CAL_COUNT
                )
            evals.append((k, bits, report, g.times))
        for first in range(0, per_round, REQUEST_GROUP):
            group = []
            with run.gauge.span() as g:
                for _ in range(min(REQUEST_GROUP, per_round - first)):
                    i = len(outputs) % n
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf), run.tracer.op("bench.request", request=len(outputs)):
                        rc, dt = timed(cli.main, argv + [str(st.paths[i])])
                    group.append(1000 * dt)
                    outputs.append((i, rc, buf.getvalue()))
            request_ms += [(ms, ms * g.scale) for ms in group]

    with run.tracer.paused():
        predicted = {}  # (slice index, bits) -> oracle classes
        for k, bits, report, _ in evals:
            sl = slices[k]
            if (k, bits) not in predicted:
                xs = st.inputs[sl]
                if bits is None:
                    predicted[k, bits] = [oracle.replay_float(st.net, st.ws, x).argmax() for x in xs]
                else:
                    qm = engine.prepare_quantized(st.net, st.ws, xs[:EVAL_CAL_COUNT], bits)
                    predicted[k, bits] = [oracle.replay_quantized(st.net, qm.layers, x)[0].argmax() for x in xs]
            got = (report.tp, report.fp, report.tn, report.fn)
            diff = sum(abs(a - b) for a, b in zip(got, _class_counts(st.labels[sl], predicted[k, bits])))
            run.tally(len(st.labels[sl]), (diff + 1) // 2, f"evaluate slice {k} bits={bits} class counts {got}")
        ledgers = {}
        for bits in (8, 16):
            qm = engine.prepare_quantized(st.net, st.ws, st.inputs[:EVAL_CAL_COUNT], bits)
            ledgers[bits] = engine.infer_lut(qm, st.inputs[0])[1]

        layers8 = oracle.layers_from_container(st.net, weights.load_weights(st.weights8))
        expected_class = {}
        ref = _ledger_stats(ledgers[8])
        bad = 0
        for i, rc, out in outputs:
            if i not in expected_class:
                probs = oracle.replay_quantized(st.net, layers8, st.inputs[i])[0]
                expected_class[i] = "malware" if probs.argmax() else "benign"
            f = _parse_simulate(out)
            ok = (
                rc == 0
                and f.get("backend") == "lut-8bit"
                and f.get("class") == expected_class[i]
                and f.get("mac_count") == str(ref["ledger.mac_count"])
                and f.get("latency_ns") == repr(ref["ledger.total_ns"])
                and f.get("energy_pj") == repr(ref["ledger.total_pj"])
            )
            bad += not ok
        run.tally(len(outputs), bad, "simulate requests (exit code, backend, class or ledger)")

    rounds = [evals[i : i + 3] for i in range(0, len(evals), 3)]  # float, 8-bit, 16-bit
    first_pass = [r[1][2] for r in rounds[: len(slices)]]
    lut_macs = ledgers[8].mac_count + ledgers[16].mac_count

    def host_metrics(w):
        def rate(entry):
            return len(st.labels[slices[entry[0]]]) / entry[3][w]

        def lut_macs_per_s(r):
            _, e8, e16 = r
            return len(st.labels[slices[e8[0]]]) * lut_macs / (e8[3][w] + e16[3][w])

        return {
            "eval_float_samples_per_s": (median(rate(r[0]) for r in rounds), "samples/s", len(rounds)),
            "eval_lut8_samples_per_s": (median(rate(r[1]) for r in rounds), "samples/s", len(rounds)),
            "macs_per_s": (median(lut_macs_per_s(r) for r in rounds), "MAC/s", len(rounds)),
            "request_ms_p50": (median(ms[w] for ms in request_ms), "ms", len(request_ms)),
        }

    accuracy = {"accuracy": (sum(r.tp + r.tn for r in first_pass) / n, "ratio", n)}
    simulated = {**_simulated(st.net, 8, ledgers[8]), **_simulated(st.net, 16, ledgers[16])}
    return measured(host_metrics, accuracy, simulated)


# ---------------------------------------------------------------------------
# mobilenet_v2_lut8: a paper-scale network with depthwise layers


def _tiny_depthwise_net():
    """Conv, depthwise, 1x1 project and dense: mobilenet's layer kinds, tiny."""
    return nets.build_network(
        "tiny_depthwise",
        (3, 16, 16),
        [
            LayerSpec(name="conv1", kind="conv2d", kernel=(3, 3), stride=2, padding=1, out_channels=8),
            LayerSpec(name="relu1", kind="relu"),
            LayerSpec(name="dw", kind="depthwise_conv2d", kernel=(3, 3), padding=1),
            LayerSpec(name="relu2", kind="relu"),
            LayerSpec(name="project", kind="conv2d", kernel=(1, 1), out_channels=8),
            LayerSpec(name="pool", kind="maxpool2d", kernel=(8, 8), stride=8),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="fc", kind="dense", out_features=10),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )


def _inputs(net, seed: int, stream: int):
    """Endless seeded input stream; stream 0 calibrates, stream 1 is timed."""
    rng = np.random.default_rng([seed, stream])
    while True:
        yield rng.random(net.input_shape)


def _setup_synthetic(net, seed: int, precisions):
    ws = engine.init_random_weights(net, seed)
    cal_stream = _inputs(net, seed, 0)
    cal = [next(cal_stream) for _ in range(CAL_INPUTS)]
    return SimpleNamespace(
        net=net,
        ws=ws,
        qm={bits: engine.prepare_quantized(net, ws, cal, bits) for bits in precisions},
    )


def setup_mobilenet(run: Run, dest: Path):
    name = run.sizes.mobilenet
    with run.gauge.span() as g:
        state = _setup_synthetic(_tiny_depthwise_net() if name == "tiny" else nets.get_network(name), run.seed, (8,))
    return state, [g]


def _check_lut(run: Run, st, x, bits, probs, ledger, captures, reference, what) -> bool:
    """Tally one LUT sample; returns whether its class is the oracle's."""
    want_probs, want_accs = oracle.replay_quantized(st.net, st.qm[bits].layers, x)
    same_class = bool(probs.argmax() == want_probs.argmax())
    ok = same_class and oracle.same_accumulators(captures["acc"], want_accs) and _same_ledger(ledger, reference)
    run.tally(1, int(not ok), f"{what} {bits}-bit accumulators, class or ledger")
    return same_class


def _check_float(run: Run, st, x, probs) -> None:
    want = oracle.replay_float(st.net, st.ws, x)
    ok = probs.argmax() == want.argmax() and np.allclose(probs, want, rtol=1e-9, atol=1e-12)
    run.tally(1, int(not ok), "float probabilities")


def measure_mobilenet(run: Run, st, deadline) -> Measured:
    xs = _inputs(st.net, run.seed, 1)
    lut8_s, float_s, agree, ref8 = [], [], 0, None  # times: (raw s, scaled s)
    minimum = TRACED_MOBILENET_ROUNDS if deadline is None else run.sizes.mobilenet_rounds
    while _more(len(lut8_s), minimum, deadline):
        x = next(xs)
        caps = {}
        with run.gauge.span() as g, run.tracer.op("bench.sample", request=len(lut8_s)):
            probs, ledger = engine.infer_lut(st.qm[8], x, captures=caps)
        lut8_s.append(g.times)
        with run.gauge.span() as g, run.tracer.op("bench.float", request=len(float_s)):
            pf = engine.infer_float(st.net, st.ws, x)
        float_s.append(g.times)
        if ref8 is None:
            ref8 = ledger
        with run.tracer.paused():
            agree += _check_lut(run, st, x, 8, probs, ledger, caps, ref8, "mobilenet")
            _check_float(run, st, x, pf)
        del caps

    rounds = len(lut8_s)

    def host_metrics(w):
        return {
            "eval_float_samples_per_s": (1 / median(t[w] for t in float_s), "samples/s", rounds),
            "eval_lut8_samples_per_s": (1 / median(t[w] for t in lut8_s), "samples/s", rounds),
            "macs_per_s": (ref8.mac_count / median(t[w] for t in lut8_s), "MAC/s", rounds),
            "request_ms_p50": (1000 * median(t[w] for t in lut8_s), "ms", rounds),
        }

    return measured(host_metrics, {"accuracy": (agree / rounds, "ratio", rounds)}, _simulated(st.net, 8, ref8))


# ---------------------------------------------------------------------------
# cluster_engine: every product through the 8-step cluster microprogram


def small_network(rng: np.random.Generator):
    """A small conv net drawn by the rule of the tests' random_small_network."""
    side = int(rng.integers(8, 13))
    c1 = int(rng.integers(2, 5))
    pad = int(rng.integers(0, 2))
    layers = [
        LayerSpec(name="conv1", kind="conv2d", kernel=(3, 3), padding=pad, out_channels=c1),
        LayerSpec(name="relu1", kind="relu"),
    ]
    if rng.random() < 0.5:
        layers.append(LayerSpec(name="pool1", kind="maxpool2d", kernel=(2, 2), stride=2))
    if rng.random() < 0.5:
        layers += [
            LayerSpec(name="conv2", kind="conv2d", kernel=(3, 3), out_channels=int(rng.integers(2, 5))),
            LayerSpec(name="relu2", kind="relu"),
        ]
    layers += [
        LayerSpec(name="flatten", kind="flatten"),
        LayerSpec(name="dense", kind="dense", out_features=3),
        LayerSpec(name="softmax", kind="softmax"),
    ]
    return nets.build_network("small_conv", (1, side, side), layers)


def setup_cluster(run: Run, dest: Path):
    with run.gauge.span() as g:
        state = _setup_synthetic(small_network(np.random.default_rng(SHAPE_SEED)), run.seed, (8, 16))
    return state, [g]


def measure_cluster(run: Run, st, deadline) -> Measured:
    # Each round runs one sample through the cluster engine at 8 and 16 bits
    # and through the float backend, then the next rows of an exhaustive mac8
    # sweep: single-MAC requests on one Cluster, whose accumulator and router
    # log grow as they would over a layer. A finished sweep restarts on a
    # fresh Cluster.
    n, rows = run.sizes.sweep_operands, run.sizes.sweep_rows
    xs = _inputs(st.net, run.seed, 1)
    # per round: 8-bit, float and busy (cluster calls) times as (raw s, scaled s), and its MACs
    lut8_s, float_s, busy_s, round_macs = [], [], [], []
    mac_ms = []  # per sweep row: (raw ms of each mac8 call, the row's gauge scale)
    agree, refs = 0, {}
    c, row = None, 0
    while _more(len(float_s), math.ceil(n / rows), deadline):
        r = len(float_s)
        x = next(xs)
        out, busy, macs = {}, np.zeros(2), 0
        if row == 0:
            c = cluster.Cluster()
        acc0, accs = c.accumulator, []
        for bits in (8, 16):
            caps = {}
            with run.gauge.span() as g, run.tracer.op("bench.infer", request=r):
                probs, ledger = engine.infer_lut(st.qm[bits], x, engine="cluster", captures=caps)
            out[bits] = (probs, ledger, caps)
            busy += g.times
            macs += ledger.mac_count
            if bits == 8:
                lut8_s.append(g.times)
        with run.gauge.span() as g, run.tracer.op("bench.float", request=r):
            pf = engine.infer_float(st.net, st.ws, x)
        float_s.append(g.times)
        for a in range(row, min(row + rows, n)):
            row_ms = []
            with run.gauge.span() as g, run.tracer.op("bench.sweep", request=r):
                for b in range(n):
                    acc, dt = timed(cluster.mac8, c, a, b)
                    accs.append(acc)
                    row_ms.append(1000 * dt)
            row_ms = np.array(row_ms)
            mac_ms.append((row_ms, g.scale))
            busy += (row_ms.sum() / 1000, row_ms.sum() * g.scale / 1000)
        busy_s.append(busy)
        round_macs.append(macs + len(accs))
        with run.tracer.paused():
            for bits, (probs, ledger, caps) in out.items():
                refs.setdefault(bits, ledger)
                same_class = _check_lut(run, st, x, bits, probs, ledger, caps, refs[bits], "cluster")
                if bits == 8:
                    agree += same_class
                vcaps = {}
                vprobs = engine.infer_lut(st.qm[bits], x, captures=vcaps)[0]
                same = oracle.same_accumulators(caps["acc"], vcaps["acc"]) and np.array_equal(probs, vprobs)
                run.tally(1, int(not same), f"cluster {bits}-bit against the vector engine")
            _check_float(run, st, x, pf)
            products = np.diff(np.array([acc0] + accs, dtype=np.int64))
            want = np.outer(np.arange(row, row + len(accs) // n), np.arange(n)).ravel()
            run.tally(len(accs), int(np.sum(products != want)), f"mac8 sweep rows from {row} against a*b")
        row = row + rows if row + rows < n else 0

    rounds = len(float_s)

    def host_metrics(w):
        calls_ms = np.concatenate([ms * (scale if w else 1.0) for ms, scale in mac_ms])
        return {
            "eval_float_samples_per_s": (1 / median(t[w] for t in float_s), "samples/s", rounds),
            "eval_lut8_samples_per_s": (1 / median(t[w] for t in lut8_s), "samples/s", rounds),
            "macs_per_s": (median(m / b[w] for m, b in zip(round_macs, busy_s)), "MAC/s", rounds),
            "request_ms_p50": (float(np.median(calls_ms)), "ms", len(calls_ms)),
        }

    simulated = {**_simulated(st.net, 8, refs[8]), **_simulated(st.net, 16, refs[16])}
    return measured(host_metrics, {"accuracy": (agree / rounds, "ratio", rounds)}, simulated)


# name -> (set-up, measure step, set-ups per untraced run). The set-up count
# is fixed, not timed: the process's peak RSS depends on it (mobilenet: 311 MB
# after 3 set-ups, 390 MB after 4 or 5), so it must not follow host speed.
WORKLOADS = {
    "malware_corpus": (setup_malware, measure_malware, 3),
    "mobilenet_v2_lut8": (setup_mobilenet, measure_mobilenet, 4),
    "cluster_engine": (setup_cluster, measure_cluster, 1000),
}
