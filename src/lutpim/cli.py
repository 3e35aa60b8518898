"""Command-line surface: convert, corpus, fit, quantize, simulate, bench, report.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import binviz, engine, nets, perf
from .quantizer import SUPPORTED_BITS, QuantParams
from .system import SystemConfig
from .weights import WeightFormatError, WeightSet, load_weights, parse_weights, save_weights

EXIT_DATA = 3
EXIT_INTERNAL = 4


class DataError(Exception):
    """User-supplied file or value is unreadable or inconsistent."""


@functools.cache
def _parser():
    """The argparse parser, and each subcommand's {dest: action} flag table; built once per process.

    Parsing leaves both untouched: every parse_args call fills a fresh namespace
    from the actions' defaults, and --config entries are set on that namespace.
    """
    ap = argparse.ArgumentParser(prog="lutpim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="binary file -> grayscale PGM")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resize", type=int, default=0, help="resize to N x N (0 = no resize)")

    p = sub.add_parser("corpus", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--benign", type=int, default=100)
    p.add_argument("--malware", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fit", help="fit the detector's dense layer on a corpus")
    p.add_argument("--corpus", required=True, help="corpus manifest CSV")
    p.add_argument("--network", default="tinymalnet")
    p.add_argument("--out", required=True, help="weight container path")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("quantize", help="quantize a float weight container")
    p.add_argument("--weights", required=True)
    p.add_argument("--network", default="tinymalnet")
    p.add_argument("--corpus", required=True, help="manifest used for activation calibration")
    p.add_argument("--precision", type=int, choices=SUPPORTED_BITS, default=8)
    p.add_argument("--cal-count", type=int, default=32)
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="run one input through the simulator")
    p.add_argument("--network", default="tinymalnet")
    p.add_argument("--weights", help="required in functional mode")
    p.add_argument("--input", help="binary or .pgm input (functional mode)")
    p.add_argument("--mode", choices=("functional", "perf"), default="functional")
    p.add_argument("--precision", type=int, choices=SUPPORTED_BITS, default=8)
    p.add_argument("--clusters", type=int, default=256)

    p = sub.add_parser("bench", help="perf-model sweep -> CSV")
    p.add_argument("--networks", default=",".join(sorted(set(nets.ZOO) - {"tinymalnet"})))
    p.add_argument("--precisions", default=",".join(map(str, SUPPORTED_BITS)))
    p.add_argument("--clusters", type=int, default=256)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="render a comparison table from a bench CSV")
    p.add_argument("--input", required=True)

    for p in sub.choices.values():
        p.add_argument("--config", help="key=value file; entries override flags")

    return ap, {name: {a.dest: a for a in p._actions} for name, p in sub.choices.items()}


def _parse_args(argv):
    ap, flags = _parser()
    args = ap.parse_args(argv)
    return args, flags[args.command]


def _apply_config(args, flags):
    """Apply the --config file's entries; flags maps each dest to its argparse action."""
    if not getattr(args, "config", None):
        return args
    try:
        text = Path(args.config).read_text()
    except OSError as e:
        raise DataError(f"cannot read config: {e}") from e
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        action = flags.get(key)
        if action is None or not hasattr(args, key):
            raise DataError(f"config key {key!r} is not a flag of {args.command}")
        try:
            value = action.type(value) if action.type else value
        except ValueError:
            raise DataError(f"config key {key!r}: invalid value {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise DataError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
        setattr(args, key, value)
    return args


def _load_manifest(path):
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise DataError(f"cannot read manifest: {e}") from e
    if not lines or lines[0] != "path,label,family,length,seed":
        raise DataError("manifest header mismatch")
    base = Path(path).parent
    samples = []
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 5:
            raise DataError(f"manifest line {n}: expected 5 fields, got {len(fields)}")
        p, label, family, _, _ = fields
        try:
            samples.append(binviz.CorpusSample(payload=(base / p).read_bytes(), label=label, family=family))
        except (OSError, ValueError) as e:  # an unreadable sample, or a bad label or family
            raise DataError(f"manifest line {n}: {e}") from None
    return samples


def _inputs_labels(samples, side):
    X = [binviz.sample_to_input(s.payload, side) for s in samples]
    y = [int(s.label == "malware") for s in samples]
    return X, y


def _system_config(**kwargs):
    try:
        return SystemConfig(**kwargs)
    except ValueError as e:
        raise DataError(f"invalid system configuration: {e}") from None


def _get_network(name):
    try:
        return nets.get_network(name)
    except KeyError as e:
        raise DataError(str(e.args[0])) from None


def _binary_side(net):
    """The side of the (1, side, side) image a binary becomes for `net`; DataError if `net` takes another shape."""
    side = net.input_shape[-1]
    if net.input_shape != (1, side, side):
        raise DataError(
            f"network {net.name} takes inputs of shape {net.input_shape}; a binary becomes a (1, side, side) image"
        )
    return side


def cmd_convert(args) -> int:
    if args.resize < 0:
        raise DataError(f"--resize {args.resize}: the side must be positive, or 0 for no resize")
    try:
        payload = Path(args.input).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read input: {e}") from e
    if not payload:
        raise DataError("input file is empty")
    img = binviz.bytes_to_image(payload)
    if args.resize:
        img = binviz.resize_to(img, args.resize)
    binviz.write_pgm(img, args.out)
    return 0


def cmd_corpus(args) -> int:
    for flag, count in (("--benign", args.benign), ("--malware", args.malware)):
        if count < 0:
            raise DataError(f"{flag} {count}: a sample count must be 0 or more")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        samples = binviz.generate_corpus(args.benign, args.malware, args.seed)
        paths = []
        for i, s in enumerate(samples):
            name = f"sample_{i:05d}.bin"
            (out / name).write_bytes(s.payload)
            paths.append(name)
        binviz.write_manifest(samples, paths, args.seed, out / "manifest.csv")
    except OSError as e:
        raise DataError(f"cannot write corpus: {e}") from e
    print(f"wrote {len(samples)} samples to {out}")
    return 0


def cmd_fit(args) -> int:
    net = _get_network(args.network)
    side = _binary_side(net)
    samples = _load_manifest(args.corpus)
    if not samples:
        raise DataError("corpus is empty")
    X, y = _inputs_labels(samples, side)
    ws = engine.init_random_weights(net, seed=args.seed)
    ws = engine.fit_last_layer(net, ws, X, y)
    save_weights(ws, args.out)
    m = engine.evaluate(net, ws, X, y)
    print(f"fit {args.network} on {len(y)} samples; train accuracy {m.accuracy:.3f}")
    return 0


def cmd_quantize(args) -> int:
    if args.cal_count < 1:
        raise DataError(f"--cal-count {args.cal_count}: calibration needs at least 1 sample")
    net = _get_network(args.network)
    side = _binary_side(net)
    try:
        ws = load_weights(args.weights)
    except (OSError, WeightFormatError) as e:
        raise DataError(str(e)) from e
    samples = _load_manifest(args.corpus)[: args.cal_count]
    if not samples:
        raise DataError("corpus is empty")
    X, _ = _inputs_labels(samples, side)
    qm = engine.prepare_quantized(net, ws, X, args.precision)
    out = WeightSet()
    for name, entry in ws.entries.items():
        out.add(name, entry.data, entry.params)
    for lname, ql in qm.layers.items():
        out.add(f"{lname}.qw", ql.qweight, ql.wparams)
        out.add(
            f"act/{lname}",
            np.zeros(0, dtype=np.int64),
            ql.act_params,
        )
    save_weights(out, args.out)
    print(f"quantized {len(qm.layers)} layers at {args.precision}-bit -> {args.out}")
    return 0


def _rebuild_qmodel(net, ws, bits):
    """The QuantizedModel a quantized container holds; None for a float-only container.

    DataError names the first entry a MAC layer needs that the container
    lacks, or whose shape is not the layer's: (O, C/G, kh, kw) or (K, O) for
    `.w` (nets.weight_shape), (K/G, O) for `.qw` and (O,) for `.b`.
    """
    quantized = any(name.endswith(".qw") for name in ws.entries)
    kind = "quantized" if quantized else "float"
    qm = engine.QuantizedModel(net=net, bits=bits) if quantized else None
    for layer in nets.mac_layers(net):
        qw_name, act_name, b_name = f"{layer.name}.qw", f"act/{layer.name}", f"{layer.name}.b"
        w_shape, out = nets.weight_shape(layer), layer.out_shape[0]
        shapes = (  # each entry the layer needs, and its shape; act entries carry only their params
            {qw_name: (math.prod(w_shape) // out, out), act_name: None, b_name: (out,)}
            if quantized
            else {f"{layer.name}.w": w_shape, b_name: (out,)}
        )
        for name, shape in shapes.items():
            if name not in ws:
                raise DataError(f"{kind} container lacks {name!r} for {net.name} layer {layer.name!r}")
            if shape is not None and ws[name].data.shape != shape:
                raise DataError(
                    f"{kind} container entry {name!r} has shape {ws[name].data.shape}, but {net.name} layer"
                    f" {layer.name!r} needs {shape}"
                )
        if qm is None:
            continue
        for name in (qw_name, act_name):
            if ws[name].params is None:
                raise DataError(f"quantized container entry {name!r} is stored unquantized")
        qw, act_params = ws[qw_name], ws[act_name].params
        if qw.params.bits != bits:
            raise DataError(
                f"weight container is {qw.params.bits}-bit; rerun quantize or pass --precision {qw.params.bits}"
            )
        if act_params.bits != bits:
            raise DataError(
                f"quantized container entry {act_name!r} is {act_params.bits}-bit, "
                f"but its layer's weights are {bits}-bit"
            )
        bias = np.asarray(ws[b_name].data, dtype=np.float64)
        qm.layers[layer.name] = engine.quantized_layer(layer, qw.data, qw.params, bias, act_params)
    return qm


@functools.lru_cache(maxsize=1)
def _loaded(data: bytes, network: str, bits: int):
    """The (WeightSet, QuantizedModel or None) that container bytes `data` hold for `network` at `bits`.

    Keyed by the bytes themselves, so a changed container is parsed again and
    nothing goes stale; an error is raised on every call, never cached. One
    entry bounds memory to one model. Every request shares the result, so its
    weight arrays are read-only.
    """
    try:
        ws = parse_weights(data)
    except WeightFormatError as e:
        raise DataError(str(e)) from e
    for entry in ws.entries.values():
        entry.data.flags.writeable = False
    return ws, _rebuild_qmodel(nets.get_network(network), ws, bits)


def cmd_simulate(args) -> int:
    net = _get_network(args.network)
    cfg = _system_config(cluster_count=args.clusters)
    if args.mode == "perf":
        report = perf.estimate(net, cfg, args.precision)
        print(perf.report_csv([report]), end="")
        for note in report.notes:
            print(f"note: {note}")
        return 0
    if not args.weights or not args.input:
        raise DataError("functional mode requires --weights and --input")
    side = _binary_side(net)
    try:
        with open(args.weights, "rb") as f:  # read on every request, so the answer follows the file
            data = f.read()
    except OSError as e:
        raise DataError(str(e)) from e
    ws, qm = _loaded(data, net.name, args.precision)
    in_path = Path(args.input)
    try:
        if in_path.suffix == ".pgm":
            img = binviz.read_pgm(in_path)
            if (img.height, img.width) != (side, side):
                img = binviz.resize_to(img, side)
            x = (img.pixels.astype(np.float64) / 255.0)[None, :, :]
        else:
            x = binviz.sample_to_input(in_path.read_bytes(), side)
    except (OSError, ValueError) as e:
        raise DataError(f"cannot read input: {e}") from e
    if qm is None:
        probs = engine.infer_float(net, ws, x)
        print(f"backend: float  class: {'malware' if probs.argmax() else 'benign'}")
        print("probabilities:", " ".join(f"{p:.6f}" for p in probs))
        return 0
    probs, ledger = engine.infer_lut(qm, x, cfg)
    s = ledger.summary()
    print(f"backend: lut-{args.precision}bit  class: {'malware' if probs.argmax() else 'benign'}")
    print("probabilities:", " ".join(f"{p:.6f}" for p in probs))
    print(f"mac_count: {ledger.mac_count}")
    print(f"latency_ns: {s['total_ns']!r}")
    print(f"energy_pj: {s['total_pj']!r}")
    return 0


def _precision(text: str) -> int:
    """One entry of --precisions, which must name one of SUPPORTED_BITS."""
    try:
        bits = int(text)
    except ValueError:
        bits = None
    if bits not in SUPPORTED_BITS:
        raise DataError(f"--precisions: {text!r} is not one of {', '.join(map(str, SUPPORTED_BITS))}")
    return bits


def cmd_bench(args) -> int:
    names = [n for n in args.networks.split(",") if n]
    precisions = [_precision(p) for p in args.precisions.split(",") if p]
    unknown = [n for n in names if n not in nets.ZOO]
    if unknown:
        raise DataError(
            f"unknown networks: {', '.join(unknown)}; valid names: {', '.join(sorted(nets.ZOO))}"
        )
    cfg = _system_config(cluster_count=args.clusters)
    reports = [
        perf.estimate(nets.get_network(name), cfg, bits)
        for name in names
        for bits in precisions
    ]
    Path(args.out).write_text(perf.report_csv(reports))
    print(f"wrote {len(reports)} rows to {args.out}")
    return 0


def cmd_report(args) -> int:
    try:
        text = Path(args.input).read_text()
    except OSError as e:
        raise DataError(f"cannot read CSV: {e}") from e
    lines = text.strip().splitlines()
    if not lines or lines[0] != perf.CSV_HEADER:
        raise DataError("not a bench CSV (header mismatch)")
    width = perf.CSV_HEADER.count(",") + 1
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        f = line.split(",")
        if len(f) != width:
            raise DataError(f"bench CSV line {n}: expected {width} fields, got {len(f)}")
        try:
            rows.append((f[0], int(f[1]), float(f[5]), float(f[7]), ()))
        except ValueError as e:
            raise DataError(f"bench CSV line {n}: {e}") from None
    print(perf.compare_table(rows), end="")
    return 0


COMMANDS = {
    "convert": cmd_convert,
    "corpus": cmd_corpus,
    "fit": cmd_fit,
    "quantize": cmd_quantize,
    "simulate": cmd_simulate,
    "bench": cmd_bench,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args, flags = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        args = _apply_config(args, flags)
        return COMMANDS[args.command](args)
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
