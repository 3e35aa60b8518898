import argparse
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from lutpim import cli, engine
from lutpim.binviz import sample_to_input
from lutpim.cli import main
from lutpim.engine import init_random_weights, prepare_quantized
from lutpim.nets import ZOO, tinymalnet
from lutpim.perf import CSV_HEADER
from lutpim.quantizer import QuantParams
from lutpim.weights import WeightFormatError, WeightSet, load_weights, parse_weights, save_weights
from tests.helpers import oracle_quantized_forward, projected_shortcut_net, random_inputs, strided_depthwise_network


def run(argv):
    return main(argv)


def test_usage_error_exit_code(capsys):
    for argv, usage in (
        (["convert"], "usage: lutpim convert"),  # missing required args
        (["simulate", "--precision", "5"], "usage: lutpim simulate"),
        (["simulate", "--mode", "perf", "--seed", "0"], "unrecognized arguments: --seed 0"),
        (["no-such-command"], "usage: lutpim"),
    ):
        assert run(["simulate", "--mode", "perf"]) == 0  # the cached parser is warm
        capsys.readouterr()
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 2
        assert usage in capsys.readouterr().err


def test_convert_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    blob = tmp_path / "blob.bin"
    blob.write_bytes(rng.integers(0, 256, size=4000, dtype=np.uint8).tobytes())
    out1, out2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    assert run(["convert", "--input", str(blob), "--out", str(out1), "--resize", "32"]) == 0
    assert run(["convert", "--input", str(blob), "--out", str(out2), "--resize", "32"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().startswith(b"P5\n32 32\n255\n")
    assert len(out1.read_bytes()) == 13 + 1024


def test_convert_no_resize(tmp_path):
    blob = tmp_path / "blob.bin"
    blob.write_bytes(bytes(range(64)) * 10)  # 640 bytes -> width 32, height 20
    out = tmp_path / "o.pgm"
    assert run(["convert", "--input", str(blob), "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"P5\n32 20\n255\n")


def test_convert_refuses_a_negative_resize(tmp_path, capsys):
    blob = tmp_path / "blob.bin"
    blob.write_bytes(bytes(range(64)) * 10)
    out = tmp_path / "o.pgm"
    assert run(["convert", "--input", str(blob), "--out", str(out), "--resize", "-3"]) == 3
    assert "--resize -3" in capsys.readouterr().err
    assert not out.exists()


def test_convert_missing_input(tmp_path):
    assert run(["convert", "--input", str(tmp_path / "nope"), "--out", str(tmp_path / "o.pgm")]) == 3


def test_convert_empty_input(tmp_path):
    empty = tmp_path / "e.bin"
    empty.write_bytes(b"")
    assert run(["convert", "--input", str(empty), "--out", str(tmp_path / "o.pgm")]) == 3


def test_corpus_then_pipeline(tmp_path):
    corp = tmp_path / "corp"
    assert run(["corpus", "--out", str(corp), "--benign", "12", "--malware", "12", "--seed", "5"]) == 0
    manifest = corp / "manifest.csv"
    lines = manifest.read_text().strip().splitlines()
    assert lines[0] == "path,label,family,length,seed"
    assert len(lines) == 25

    w = tmp_path / "w.pimw"
    assert run(["fit", "--corpus", str(manifest), "--out", str(w), "--seed", "1"]) == 0
    assert w.exists()

    w8 = tmp_path / "w8.pimw"
    assert run([
        "quantize", "--weights", str(w), "--corpus", str(manifest),
        "--precision", "8", "--out", str(w8),
    ]) == 0

    sample = corp / lines[1].split(",")[0]
    code = run([
        "simulate", "--weights", str(w8), "--input", str(sample),
    ])
    assert code == 0


def test_simulate_perf_mode(capsys):
    assert run(["simulate", "--mode", "perf", "--network", "alexnet"]) == 0
    out = capsys.readouterr().out
    assert "alexnet" in out
    assert "latency" in out or "fps" in out.lower()


def test_simulate_unknown_network():
    assert run(["simulate", "--mode", "perf", "--network", "lenet5"]) == 3


def test_simulate_functional_requires_io():
    assert run(["simulate", "--mode", "functional"]) == 3


def test_simulate_refuses_a_partly_quantized_container(tmp_path, capsys):
    net = tinymalnet()
    ws = init_random_weights(net, seed=2)
    blob = tmp_path / "x.bin"
    blob.write_bytes(bytes(range(256)) * 8)
    argv = ["simulate", "--input", str(blob), "--weights"]
    # a container without quantized entries still runs the float backend
    save_weights(ws, tmp_path / "float.pimw")
    assert run(argv + [str(tmp_path / "float.pimw")]) == 0
    assert "backend: float" in capsys.readouterr().out
    partial = cli._quantized_container(ws, prepare_quantized(net, ws, [sample_to_input(blob.read_bytes())], 8))
    del partial.entries["dense.qw"]
    save_weights(partial, tmp_path / "partial.pimw")
    assert run(argv + [str(tmp_path / "partial.pimw")]) == 3
    captured = capsys.readouterr()
    assert "'dense.qw'" in captured.err
    assert "backend" not in captured.out


def _quantized_weights(seed, blob, bits=8):
    """The tinymalnet container `quantize` writes for weights of `seed` calibrated on `blob`."""
    net = tinymalnet()
    ws = init_random_weights(net, seed=seed)
    return cli._quantized_container(ws, prepare_quantized(net, ws, [sample_to_input(blob.read_bytes())], bits))


@pytest.mark.parametrize(
    "entry, message",
    [
        ("act/conv1", "quantized container entry 'act/conv1' is stored unquantized"),
        ("conv1.qw", "quantized container entry 'conv1.qw' is stored unquantized"),
    ],
    ids=["act-unquantized", "qw-unquantized"],
)
def test_simulate_refuses_a_malformed_quantized_entry(tmp_path, capsys, entry, message):
    blob = tmp_path / "x.bin"
    blob.write_bytes(bytes(range(256)) * 8)
    ws = _quantized_weights(2, blob)
    ws.add(entry, ws[entry].data.astype(np.float32))
    save_weights(ws, tmp_path / "q.pimw")
    assert run(["simulate", "--input", str(blob), "--weights", str(tmp_path / "q.pimw")]) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert "backend" not in captured.out


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("layer", ["conv1", "dense"])
def test_a_container_whose_bias_is_not_finite_exits_3_naming_it(tmp_path, capsys, layer, value):
    """quantize refuses a float container, and simulate a quantized one, whose first or last layer's bias is not finite."""
    blob = tmp_path / "x.bin"
    blob.write_bytes(bytes(range(256)) * 8)
    assert run(["corpus", "--out", str(tmp_path / "corp"), "--benign", "1", "--malware", "1"]) == 0
    net = tinymalnet()
    ws, qws = init_random_weights(net, seed=2), _quantized_weights(2, blob)
    for w in (ws, qws):
        bias = w[f"{layer}.b"].data.copy()
        bias[-1] = value
        w.add(f"{layer}.b", bias)
    save_weights(ws, tmp_path / "f.pimw")
    save_weights(qws, tmp_path / "q.pimw")
    out = tmp_path / "out.pimw"
    argv = ["--corpus", str(tmp_path / "corp" / "manifest.csv"), "--out", str(out)]
    for kind, argv in (
        ("float", ["quantize", "--weights", str(tmp_path / "f.pimw"), *argv]),
        ("quantized", ["simulate", "--input", str(blob), "--weights", str(tmp_path / "q.pimw")]),
    ):
        with np.errstate(invalid="ignore"):  # quantize's calibration pass computes with the bias
            assert run(argv) == 3, kind
        captured = capsys.readouterr()
        assert f"error: {kind} container: bias {layer}.b of layer '{layer}' is not finite" in captured.err
        assert "backend" not in captured.out and not out.exists()


def _float_container_argv(tmp_path, command, weights):
    """argv of `command` (simulate or quantize) reading the float container `weights` and a valid input or corpus."""
    if command == "simulate":
        blob = tmp_path / "x.bin"
        blob.write_bytes(bytes(range(256)) * 8)
        return ["simulate", "--input", str(blob), "--weights", str(weights)]
    assert main(["corpus", "--out", str(tmp_path / "corp"), "--benign", "1", "--malware", "1"]) == 0
    manifest = str(tmp_path / "corp" / "manifest.csv")
    return ["quantize", "--weights", str(weights), "--corpus", manifest, "--out", str(tmp_path / "out.pimw")]


@pytest.mark.parametrize("command", ["simulate", "quantize"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry, what", [("w", "weight"), ("b", "bias")])
@pytest.mark.parametrize("layer", ["conv1", "dense"])
def test_a_float_container_holding_a_value_that_is_not_finite_exits_3_naming_it(
    tmp_path, capsys, layer, entry, what, value, command
):
    ws = init_random_weights(tinymalnet(), seed=2)
    data = ws[f"{layer}.{entry}"].data.copy()
    data.flat[-1] = value
    ws.add(f"{layer}.{entry}", data)
    save_weights(ws, tmp_path / "f.pimw")
    argv = _float_container_argv(tmp_path, command, tmp_path / "f.pimw")
    capsys.readouterr()
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: float container: {what} {layer}.{entry} of layer '{layer}' is not finite" in captured.err
    assert not (tmp_path / "out.pimw").exists()


@pytest.mark.parametrize(
    "quantized, change, message",
    [
        (False, lambda ws: ws.entries.pop("dense.b"), "float container lacks 'dense.b' for tinymalnet layer 'dense'"),
        (
            False,
            lambda ws: ws.add("conv2.w", np.ascontiguousarray(ws["conv2.w"].data[:, :4])),
            "float container entry 'conv2.w' has shape (16, 4, 3, 3), but tinymalnet layer 'conv2' needs (16, 8, 3, 3)",
        ),
        (True, lambda ws: ws.entries.pop("conv1.w"), "float container lacks 'conv1.w' for tinymalnet layer 'conv1'"),
    ],
    ids=["missing-bias", "conv-half-channels", "quantized-without-weights"],
)
def test_quantize_checks_its_float_container_as_simulate_does(tmp_path, capsys, quantized, change, message):
    """quantize exits 3 with simulate's message; it reads `.w` even from a container holding `.qw` entries."""
    blob = tmp_path / "x.bin"
    blob.write_bytes(bytes(range(256)) * 8)
    ws = _quantized_weights(2, blob) if quantized else init_random_weights(tinymalnet(), seed=2)
    change(ws)
    save_weights(ws, tmp_path / "f.pimw")
    for command in ("quantize",) if quantized else ("simulate", "quantize"):  # simulate runs a quantized one's .qw
        argv = _float_container_argv(tmp_path, command, tmp_path / "f.pimw")
        capsys.readouterr()
        assert run(argv) == 3, command
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, command
        assert not (tmp_path / "out.pimw").exists()


def test_a_layer_with_16_bit_activations_under_8_bit_weights_runs_at_16_bits(tmp_path, capsys):
    # a container of 8-bit layers whose act/conv1 params come from a 16-bit calibration
    net = tinymalnet()
    blob, weights = tmp_path / "x.bin", tmp_path / "q.pimw"
    blob.write_bytes(bytes(range(256)) * 8)
    x = sample_to_input(blob.read_bytes())
    ws = init_random_weights(net, seed=2)
    container = cli._quantized_container(ws, prepare_quantized(net, ws, [x], 8))
    act16 = prepare_quantized(net, ws, [x], 16).layers["conv1"].act_params
    container.add("act/conv1", container["act/conv1"].data, act16)
    save_weights(container, weights)
    assert _simulate_out(capsys, ["simulate", "--input", str(blob), "--weights", str(weights)]).startswith(
        "backend: lut-8/16bit  class: "
    )
    qm = cli._rebuild_qmodel(net, load_weights(weights))
    conv1 = qm.layers["conv1"]
    assert (conv1.wparams.bits, conv1.act_params.bits, conv1.bits) == (8, 16, 16)
    xs = np.stack([x, *random_inputs(net, np.random.default_rng(2), 1)])
    oracle = [oracle_quantized_forward(qm, sample) for sample in xs]
    for engine_name in ("vector", "cluster"):
        captures = {}
        probs, _ = engine.infer_lut(qm, xs, engine=engine_name, captures=captures)
        assert captures["acc"].keys() == oracle[0][1].keys()
        for i, (want_probs, want_acc) in enumerate(oracle):
            assert probs[i] == pytest.approx(want_probs, abs=1e-12), (engine_name, i)
            for name, acc in captures["acc"].items():
                assert np.array_equal(acc[i], want_acc[name]), (engine_name, i, name)


def test_simulate_runs_a_container_mixing_precisions(tmp_path, capsys):
    """conv1 at 8 bits, conv2 at 16 and dense at 4, from three prepare_quantized calls, saved by quantize's writer."""
    net = tinymalnet()
    blob, weights = tmp_path / "x.bin", tmp_path / "q.pimw"
    blob.write_bytes(bytes(range(256)) * 8)
    x = sample_to_input(blob.read_bytes())
    ws = init_random_weights(net, seed=5)
    by_bits = {bits: prepare_quantized(net, ws, [x], bits) for bits in (4, 8, 16)}
    precisions = {"conv1": 8, "conv2": 16, "dense": 4}
    qm = engine.QuantizedModel(net, {name: by_bits[b].layers[name] for name, b in precisions.items()})
    save_weights(cli._quantized_container(ws, qm), weights)
    probs, ledger = engine.infer_lut(qm, x)
    s = ledger.summary()
    want = [
        f"backend: lut-4/8/16bit  class: {'malware' if probs.argmax() else 'benign'}",
        "probabilities: " + " ".join(f"{p:.6f}" for p in probs),
        f"mac_count: {ledger.mac_count}",
        f"latency_ns: {s['total_ns']!r}",
        f"energy_pj: {s['total_pj']!r}",
    ]
    argv = ["simulate", "--input", str(blob), "--weights", str(weights)]
    assert _simulate_out(capsys, argv).splitlines() == want
    assert _simulate_out(capsys, argv + ["--precision", "16"]).splitlines() == want  # a perf-mode flag


def test_simulate_refuses_a_4_bit_code_past_its_maximum(tmp_path, capsys):
    # a 4-bit code is stored in a whole byte, so the container can hold codes up to 255
    blob, weights = tmp_path / "x.bin", tmp_path / "q.pimw"
    blob.write_bytes(bytes(range(256)) * 8)
    ws = _quantized_weights(2, blob, bits=4)
    argv = ["simulate", "--input", str(blob), "--weights", str(weights)]
    for code, rc in ((15, 0), (16, 3), (200, 3)):
        codes = ws["conv1.qw"].data.copy()
        codes.flat[0] = code
        ws.add("conv1.qw", codes, ws["conv1.qw"].params)
        save_weights(ws, weights)
        assert run(argv) == rc, code
        captured = capsys.readouterr()
        if rc:
            assert f"conv1.qw: code {code} is past the 4-bit maximum 15" in captured.err
            assert "backend" not in captured.out
            with pytest.raises(WeightFormatError, match="conv1.qw"):
                parse_weights(weights.read_bytes())


def test_a_projected_shortcut_container_rebuilds_its_projection():
    # the container `quantize` writes for a model: every float entry, plus each MAC layer's codes and act params
    net, ws = projected_shortcut_net()
    rng = np.random.default_rng(9)
    qm = prepare_quantized(net, ws, random_inputs(net, rng, 2), 8)
    ws = cli._quantized_container(ws, qm)
    rebuilt = cli._rebuild_qmodel(net, ws)
    assert rebuilt.layers.keys() == qm.layers.keys() == {"conv", "conv_s2", "add.proj", "dense"}
    x = rng.random(net.input_shape)
    assert np.array_equal(engine.infer_lut(rebuilt, x)[0], engine.infer_lut(qm, x)[0])
    del ws.entries["act/add.proj"]
    with pytest.raises(cli.DataError, match="'act/add.proj' for proj layer 'add.proj'"):
        cli._rebuild_qmodel(net, ws)


@pytest.mark.parametrize(
    "quantized, entry, message",
    [
        (True, "dense.b", "quantized container lacks 'dense.b' for tinymalnet layer 'dense'"),
        (False, "dense.w", "float container lacks 'dense.w' for tinymalnet layer 'dense'"),
    ],
    ids=["quantized-bias", "float-weights"],
)
def test_simulate_refuses_a_container_missing_a_layer_entry(tmp_path, capsys, quantized, entry, message):
    blob = tmp_path / "x.bin"
    blob.write_bytes(bytes(range(256)) * 8)
    ws = _quantized_weights(2, blob) if quantized else init_random_weights(tinymalnet(), seed=2)
    del ws.entries[entry]
    save_weights(ws, tmp_path / "w.pimw")
    assert run(["simulate", "--input", str(blob), "--weights", str(tmp_path / "w.pimw")]) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert "backend" not in captured.out


@pytest.mark.parametrize(
    "quantized, entry, reshape, message",
    [
        (
            False,
            "dense.w",
            lambda w: w.T,
            "float container entry 'dense.w' has shape (2, 576), but tinymalnet layer 'dense' needs (576, 2)",
        ),
        (
            False,
            "conv2.w",
            lambda w: w[:, :4],
            "float container entry 'conv2.w' has shape (16, 4, 3, 3), but tinymalnet layer 'conv2' needs (16, 8, 3, 3)",
        ),
        (
            True,
            "conv2.qw",
            lambda w: w[:36],
            "quantized container entry 'conv2.qw' has shape (36, 16), but tinymalnet layer 'conv2' needs (72, 16)",
        ),
        (
            False,
            "conv1.b",
            lambda b: b[:-1],
            "float container entry 'conv1.b' has shape (7,), but tinymalnet layer 'conv1' needs (8,)",
        ),
    ],
    ids=["float-dense-transposed", "float-conv-half-channels", "quantized-qw", "float-bias"],
)
def test_simulate_refuses_a_container_entry_of_the_wrong_shape(tmp_path, capsys, quantized, entry, reshape, message):
    blob = tmp_path / "x.bin"
    blob.write_bytes(bytes(range(256)) * 8)
    ws = _quantized_weights(2, blob) if quantized else init_random_weights(tinymalnet(), seed=2)
    ws.add(entry, np.ascontiguousarray(reshape(ws[entry].data)), ws[entry].params)
    save_weights(ws, tmp_path / "w.pimw")
    assert run(["simulate", "--input", str(blob), "--weights", str(tmp_path / "w.pimw")]) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert "backend" not in captured.out


def _simulate_out(capsys, argv):
    assert run(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("resize", ["0", "32"])
def test_simulate_reads_a_pgm_as_the_binary_it_shows(tmp_path, capsys, resize):
    blob, pgm, weights = tmp_path / "x.bin", tmp_path / "x.pgm", tmp_path / "q.pimw"
    blob.write_bytes(np.random.default_rng(6).integers(0, 256, size=3000, dtype=np.uint8).tobytes())
    save_weights(_quantized_weights(2, blob), weights)
    assert run(["convert", "--input", str(blob), "--out", str(pgm), "--resize", resize]) == 0
    argv = ["simulate", "--weights", str(weights), "--input"]
    assert _simulate_out(capsys, argv + [str(pgm)]) == _simulate_out(capsys, argv + [str(blob)])


def test_simulate_follows_a_container_overwritten_in_place(tmp_path, capsys):
    blob, weights = tmp_path / "x.bin", tmp_path / "q.pimw"
    blob.write_bytes(bytes(range(256)) * 8)
    argv = ["simulate", "--input", str(blob), "--weights", str(weights)]
    save_weights(_quantized_weights(1, blob), weights)
    first = _simulate_out(capsys, argv)
    save_weights(_quantized_weights(2, blob), weights)
    second = _simulate_out(capsys, argv)
    assert "backend: lut-8bit" in second and second != first
    cli._loaded.cache_clear()
    assert _simulate_out(capsys, argv) == second


def test_simulate_refuses_a_corrupt_container_on_every_request(tmp_path, capsys):
    blob, weights = tmp_path / "x.bin", tmp_path / "q.pimw"
    blob.write_bytes(bytes(range(256)) * 8)
    weights.write_bytes(b"PIMX" + bytes(8))
    for _ in range(2):
        assert run(["simulate", "--input", str(blob), "--weights", str(weights)]) == 3
        assert "bad magic; not a PIMW weight container" in capsys.readouterr().err


def test_warm_requests_parse_the_container_once(tmp_path, monkeypatch, capsys):
    blob, weights = tmp_path / "x.bin", tmp_path / "q.pimw"
    blob.write_bytes(bytes(range(256)) * 8)
    save_weights(_quantized_weights(3, blob), weights)
    argv = ["simulate", "--input", str(blob), "--weights", str(weights)]
    parsed = []

    def counting_parse(data):
        parsed.append(len(data))
        return parse_weights(data)

    monkeypatch.setattr(cli, "parse_weights", counting_parse)
    cli._loaded.cache_clear()
    warm = [_simulate_out(capsys, argv) for _ in range(20)]
    assert len(parsed) == 1
    cli._loaded.cache_clear()
    assert set(warm) == {_simulate_out(capsys, argv)}
    assert len(parsed) == 2
    ws, qm = cli._loaded(weights.read_bytes(), "tinymalnet")  # what every request shares is read-only
    assert not any(entry.data.flags.writeable for entry in ws.entries.values())
    assert len(parsed) == 2


def test_the_benchmark_counts_a_float_backend_request_as_failed(monkeypatch, capsys):
    # perfbench's own test of this patches _rebuild_qmodel with its former (net, ws, bits)
    # signature, so there each request exits 4 before it reaches the float backend
    from perfbench import harness

    rebuilt = []

    def float_only(net, ws):
        rebuilt.append(net.name)
        return None

    monkeypatch.setattr(cli, "_rebuild_qmodel", float_only)
    cli._loaded.cache_clear()
    args = argparse.Namespace(workload="malware_corpus", seed=3, seconds=0.0, trace=0, tiny=True)
    try:
        assert harness.main(args, threads=1) == 0
    finally:
        cli._loaded.cache_clear()
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert rebuilt and "internal error" not in err  # every request ran the float backend
    assert "check failed: simulate requests" in err
    assert result["failed"] >= harness.workloads.TINY.min_requests


@pytest.mark.parametrize("cal_count", ["0", "-1"])
def test_quantize_refuses_a_cal_count_below_one(tmp_path, capsys, cal_count):
    corp = tmp_path / "corp"
    assert run(["corpus", "--out", str(corp), "--benign", "2", "--malware", "2", "--seed", "1"]) == 0
    save_weights(init_random_weights(tinymalnet(), seed=1), tmp_path / "w.pimw")
    out = tmp_path / "q.pimw"
    assert run([
        "quantize", "--weights", str(tmp_path / "w.pimw"), "--corpus", str(corp / "manifest.csv"),
        "--cal-count", cal_count, "--out", str(out),
    ]) == 3
    assert f"--cal-count {cal_count}: calibration needs at least 1 sample" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--benign", "--malware"])
def test_corpus_refuses_a_negative_count(tmp_path, capsys, flag):
    out = tmp_path / "corp"
    assert run(["corpus", "--out", str(out), flag, "-1"]) == 3
    assert f"{flag} -1: a sample count must be 0 or more" in capsys.readouterr().err
    assert not out.exists()


def test_bench_deterministic(tmp_path):
    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    args = ["bench", "--networks", "alexnet,vgg16", "--precisions", "8,16"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0].startswith("network,precision_bits")
    assert len(lines) == 5


def test_bench_unknown_network(tmp_path):
    assert run(["bench", "--networks", "alexnet,nope", "--out", str(tmp_path / "b.csv")]) == 3


@pytest.mark.parametrize("precisions", ["5", "8,x"])
def test_bench_refuses_a_bad_precision(tmp_path, capsys, precisions):
    out = tmp_path / "b.csv"
    assert run(["bench", "--networks", "alexnet", "--precisions", precisions, "--out", str(out)]) == 3
    bad = precisions.split(",")[-1]
    assert f"--precisions: '{bad}' is not one of 4, 8, 16" in capsys.readouterr().err
    assert not out.exists()


def test_report_round_trip(tmp_path, capsys):
    csvp = tmp_path / "b.csv"
    assert run(["bench", "--networks", "alexnet", "--precisions", "8", "--out", str(csvp)]) == 0
    capsys.readouterr()
    assert run(["report", "--input", str(csvp)]) == 0
    out = capsys.readouterr().out
    assert "alexnet" in out
    assert "paper-reported, not simulated" in out


def test_report_rejects_non_csv(tmp_path):
    junk = tmp_path / "x.csv"
    junk.write_text("hello\n")
    assert run(["report", "--input", str(junk)]) == 3


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("networks=alexnet\nprecisions=8\n")
    out = tmp_path / "b.csv"
    assert run(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("alexnet,8,")


@pytest.mark.parametrize(
    "entry, argv, message",
    [
        ("warp_speed=9", ["bench", "--out", "b.csv"], "config key 'warp_speed' is not a flag of bench"),
        ("clusters=abc", ["bench", "--out", "b.csv"], "config key 'clusters': invalid value 'abc'"),
        ("precision=5", ["simulate", "--mode", "perf"], "config key 'precision': 5 is not one of [4, 8, 16]"),
    ],
    ids=["unknown-key", "not-an-int", "not-a-choice"],
)
def test_config_unknown_key(tmp_path, monkeypatch, capsys, entry, argv, message):
    # a config entry gets the same type and choices checks as its flag
    monkeypatch.chdir(tmp_path)
    Path("cfg.txt").write_text(entry + "\n")
    assert run(argv + ["--config", "cfg.txt"]) == 3
    assert message in capsys.readouterr().err
    assert not Path("b.csv").exists()


@pytest.mark.parametrize(
    "argv", [["simulate", "--mode", "perf"], ["bench", "--out", "b.csv"]], ids=["simulate", "bench"]
)
def test_invalid_system_config_exits_3(tmp_path, monkeypatch, capsys, argv):
    # 100 clusters do not fill whole 16-cluster subarrays
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--clusters", "100"]) == 3
    assert "invalid system configuration: clusters_per_subarray must divide cluster_count" in capsys.readouterr().err
    assert not Path("b.csv").exists()


@pytest.mark.parametrize(
    "row, message",
    [
        ("s.bin,benign,none", "manifest line 3: expected 5 fields, got 3"),
        ("gone.bin,benign,none,4,0", "manifest line 3: [Errno 2] No such file or directory: '{tmp}/gone.bin'"),
        ("s.bin,spam,none,4,0", "manifest line 3: bad label 'spam'"),
    ],
    ids=["short-line", "missing-sample", "bad-label"],
)
def test_fit_refuses_a_bad_manifest(tmp_path, capsys, row, message):
    (tmp_path / "s.bin").write_bytes(b"\x01\x02\x03\x04")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"path,label,family,length,seed\ns.bin,benign,none,4,0\n{row}\n")
    out = tmp_path / "w.pimw"
    assert run(["fit", "--corpus", str(manifest), "--out", str(out)]) == 3
    assert message.format(tmp=tmp_path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, message",
    [
        ("name", "tensor name b'\\xff\\xfe' is not UTF-8"),
        ("scale", "ab: bad quant params: scale must be positive and finite, got 0.0"),
    ],
    ids=["name", "scale"],
)
def test_simulate_refuses_a_corrupt_container(tmp_path, capsys, kind, message):
    # a one-tensor q8 container, then its name made non-UTF-8 or its scale 0
    ws = WeightSet()
    ws.add("ab", np.array([1, 2], dtype=np.int64), QuantParams(scale=0.5, zero_point=128, bits=8))
    weights = tmp_path / "w.pimw"
    save_weights(ws, weights)
    buf = bytearray(weights.read_bytes())
    name_at = 4 + 1 + 4 + 2  # magic, version, tensor count, name length
    if kind == "name":
        buf[name_at : name_at + 2] = b"\xff\xfe"
    else:
        scale_at = name_at + 2 + 1 + 4 + 1  # name, rank, one dim, dtype byte
        buf[scale_at : scale_at + 8] = struct.pack("<d", 0.0)
    weights.write_bytes(bytes(buf))
    blob = tmp_path / "x.bin"
    blob.write_bytes(bytes(range(256)) * 8)
    assert run(["simulate", "--weights", str(weights), "--input", str(blob)]) == 3
    assert message in capsys.readouterr().err


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    # the top-level parser and one subparser per command, counted across many calls
    cli._parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    csvp = tmp_path / "b.csv"
    blob = tmp_path / "blob.bin"
    blob.write_bytes(bytes(range(64)) * 10)
    for argv in (
        ["simulate", "--mode", "perf", "--network", "alexnet"],
        ["bench", "--networks", "alexnet", "--precisions", "8", "--out", str(csvp)],
        ["report", "--input", str(csvp)],
        ["convert", "--input", str(blob), "--out", str(tmp_path / "o.pgm")],
        ["simulate", "--mode", "perf", "--network", "tinymalnet", "--precision", "4"],
    ):
        assert run(argv) == 0
    assert len(built) == 1 + len(cli.COMMANDS)
    assert built[0] == "lutpim"


def _perf_row(capsys, argv):
    """The (network, precision_bits, clusters) of the one CSV row `simulate --mode perf` prints."""
    assert run(["simulate", "--mode", "perf", *argv]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    return row[0], int(row[1]), int(row[2])


def test_parsed_values_do_not_leak_between_calls(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("network=alexnet\nclusters=512\n")
    assert _perf_row(capsys, []) == ("tinymalnet", 8, 256)
    assert _perf_row(capsys, ["--config", str(cfg), "--precision", "16"]) == ("alexnet", 16, 512)
    assert _perf_row(capsys, []) == ("tinymalnet", 8, 256)
    # a --config entry sets the parsed namespace, never the cached flag table's defaults
    out = tmp_path / "b.csv"
    cfg.write_text("networks=alexnet\nprecisions=8\n")
    assert run(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    assert run(["bench", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 3 * (len(ZOO) - 1)


@pytest.mark.parametrize(
    "row, message",
    [
        ("alexnet,8,256,1,2.0,3.0,4.0", "bench CSV line 3: expected 8 fields, got 7"),
        ("alexnet,8,256,1,2.0,fast,4.0,5.0", "bench CSV line 3: could not convert string to float: 'fast'"),
    ],
    ids=["short-row", "non-numeric"],
)
def test_report_refuses_a_bad_row(tmp_path, capsys, row, message):
    csvp = tmp_path / "b.csv"
    csvp.write_text(f"{CSV_HEADER}\nvgg16,8,256,1,2.0,3.0,4.0,5.0\n{row}\n")
    assert run(["report", "--input", str(csvp)]) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_quantize_refuses_an_empty_corpus(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,family,length,seed\n")
    save_weights(init_random_weights(tinymalnet(), seed=1), tmp_path / "w.pimw")
    out = tmp_path / "q.pimw"
    assert run([
        "quantize", "--weights", str(tmp_path / "w.pimw"), "--corpus", str(manifest), "--out", str(out),
    ]) == 3
    assert "error: corpus is empty" in capsys.readouterr().err
    assert not out.exists()


def test_corpus_refuses_an_out_path_that_is_a_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    assert run(["corpus", "--out", str(out), "--benign", "1", "--malware", "1"]) == 3
    assert "error: cannot write corpus:" in capsys.readouterr().err
    assert out.read_text() == "keep me\n"


@pytest.mark.parametrize(
    "argv, network",
    [
        (["fit", "--corpus", "{tmp}/manifest.csv", "--out", "{tmp}/out.pimw"], "alexnet"),
        (["quantize", "--weights", "{tmp}/w.pimw", "--corpus", "{tmp}/manifest.csv", "--out", "{tmp}/out.pimw"],
         "alexnet"),
        (["quantize", "--weights", "{tmp}/w.pimw", "--corpus", "{tmp}/manifest.csv", "--out", "{tmp}/out.pimw"],
         "resnet18"),
        (["simulate", "--weights", "{tmp}/w.pimw", "--input", "{tmp}/s.bin"], "mobilenet_v2"),
    ],
    ids=["fit", "quantize", "quantize-resnet18", "simulate"],
)
def test_binary_input_refuses_a_network_of_another_shape(tmp_path, monkeypatch, capsys, argv, network):
    # binaries become (1, side, side) images; these networks take (3, 224, 224), refused before any inference
    (tmp_path / "s.bin").write_bytes(bytes(range(256)) * 4)
    (tmp_path / "manifest.csv").write_text("path,label,family,length,seed\ns.bin,benign,none,1024,0\n")
    save_weights(init_random_weights(tinymalnet(), seed=1), tmp_path / "w.pimw")

    def no_inference(*args, **kwargs):
        raise AssertionError("inference ran")

    monkeypatch.setattr(engine, "infer_float", no_inference)
    monkeypatch.setattr(engine, "infer_lut", no_inference)
    assert run([a.format(tmp=tmp_path) for a in argv] + ["--network", network]) == 3
    assert f"network {network} takes inputs of shape (3, 224, 224)" in capsys.readouterr().err
    assert not (tmp_path / "out.pimw").exists()


def _quantize_a_corpus(tmp_path, bits):
    """(float container, calibration inputs, in-memory model, quantized container) of `quantize` on 6 samples."""
    corp, w, q = tmp_path / "corp", tmp_path / "w.pimw", tmp_path / "q.pimw"
    assert run(["corpus", "--out", str(corp), "--benign", "3", "--malware", "3", "--seed", "4"]) == 0
    manifest = str(corp / "manifest.csv")
    assert run(["fit", "--corpus", manifest, "--out", str(w), "--seed", "1"]) == 0
    assert run(["quantize", "--weights", str(w), "--corpus", manifest, "--precision", bits, "--out", str(q)]) == 0
    xs, _ = cli._inputs_labels(cli._load_manifest(manifest), 32)
    return w, xs, prepare_quantized(tinymalnet(), load_weights(w), xs, int(bits)), q


def test_an_asymmetric_param_with_a_mid_range_zero_point_loads_back_equal(tmp_path):
    ws = WeightSet()
    ws.add("act/x", np.zeros(0, dtype=np.int64), QuantParams(scale=0.5, zero_point=128, bits=8))
    save_weights(ws, tmp_path / "w.pimw")
    assert load_weights(tmp_path / "w.pimw")["act/x"].params == ws["act/x"].params


@pytest.mark.parametrize("bits", ["4", "8", "16"])
def test_a_rebuilt_container_model_infers_like_the_in_memory_model(tmp_path, capsys, bits):
    w, xs, in_memory, q = _quantize_a_corpus(tmp_path, bits)
    saved, back = cli._quantized_container(load_weights(w), in_memory), load_weights(q)
    assert list(back.entries) == list(saved.entries)
    for name, entry in saved.entries.items():  # every entry loads back equal to what was saved
        assert back[name].params == entry.params and np.array_equal(back[name].data, entry.data), name
    rebuilt = cli._rebuild_qmodel(tinymalnet(), back)
    sample = next((tmp_path / "corp").glob("*.bin"))
    capsys.readouterr()  # what the set-up commands printed
    out = _simulate_out(capsys, ["simulate", "--weights", str(q), "--input", str(sample)])
    assert out.startswith(f"backend: lut-{bits}bit  class: ")
    want, got = {}, {}
    want_probs, _ = engine.infer_lut(in_memory, np.stack(xs), captures=want)
    got_probs, _ = engine.infer_lut(rebuilt, np.stack(xs), captures=got)
    assert np.array_equal(got_probs, want_probs)
    assert got["acc"].keys() == want["acc"].keys()
    for name, acc in want["acc"].items():
        assert got["acc"][name].dtype == np.int64 and np.array_equal(got["acc"][name], acc), name


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_a_depthwise_container_rebuilds_the_in_memory_weight_rows(tmp_path, bits):
    # a depthwise layer's (k, C) container codes and its (C, 1, k) rows are a real transpose of each other
    net = strided_depthwise_network()
    ws = init_random_weights(net, seed=21)
    rng = np.random.default_rng(21 + bits)
    qm = prepare_quantized(net, ws, random_inputs(net, rng, 2), bits)
    save_weights(cli._quantized_container(ws, qm), tmp_path / "q.pimw")
    container = load_weights(tmp_path / "q.pimw")
    rebuilt = cli._rebuild_qmodel(net, container)
    assert rebuilt.layers.keys() == qm.layers.keys()
    assert rebuilt.layers["dw"].lhs.shape == (3, 1, 9)
    for name, ql in rebuilt.layers.items():
        want = qm.layers[name].lhs
        assert (ql.lhs.dtype, ql.lhs.shape, ql.lhs.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
        assert np.array_equal(ql.qweight, container[f"{name}.qw"].data), name
    x = np.stack(random_inputs(net, rng, 2))
    want, got = {}, {}
    engine.infer_lut(qm, x, captures=want)
    engine.infer_lut(rebuilt, x, captures=got)
    assert got["acc"].keys() == want["acc"].keys()
    for name, acc in want["acc"].items():
        assert got["acc"][name].dtype == np.int64 and np.array_equal(got["acc"][name], acc), name
