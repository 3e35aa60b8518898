import pytest

from lutpim.engine import infer_lut, prepare_quantized, init_random_weights
from lutpim.nets import LayerSpec, build_network, get_network, tinymalnet
from lutpim.perf import (
    PAPER_BASELINE_ANNOTATIONS,
    RESNET50_CLAIM_NOTE,
    compare_report,
    estimate,
    layer_csv,
    mac_count,
    report_csv,
)
from lutpim.system import SystemConfig
import numpy as np

from tests.helpers import (
    depthwise_residual_network,
    projected_shortcut_net,
    random_inputs,
    random_small_network,
    strided_depthwise_network,
)


def small_net():
    return build_network(
        "small3",
        (1, 32, 32),
        [
            LayerSpec(name="conv1", kind="conv2d", kernel=(3, 3), out_channels=8),
            LayerSpec(name="relu1", kind="relu"),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="dense", kind="dense", out_features=2),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )


def test_mac_count_formulas():
    net = small_net()
    by_name = {l.name: l for l in net.layers}
    assert mac_count(by_name["conv1"]) == 3 * 3 * 1 * 30 * 30 * 8  # 64800
    assert mac_count(by_name["dense"]) == 7200 * 2
    assert mac_count(by_name["relu1"]) == 0
    assert mac_count(by_name["flatten"]) == 0
    assert mac_count(by_name["softmax"]) == 0
    # a depthwise layer: 3x3 taps per output over C = 3 channels, (9, 11) -> (4, 5) at stride 2, no padding
    assert mac_count({l.name: l for l in strided_depthwise_network().layers}["dw"]) == 3 * 3 * 3 * 4 * 5
    # a projected residual_add: its 1x1 conv of the (3, 7, 7) source to (4, 4, 4) at stride 2
    assert mac_count({l.name: l for l in projected_shortcut_net()[0].layers}["add"]) == 3 * 4 * 4 * 4
    assert mac_count({l.name: l for l in depthwise_residual_network().layers}["add"]) == 0  # identity shortcut


def test_weight_transfers_follow_the_subarray_size():
    """A MAC layer charges one hop-1 inter transfer per subarray of clusters it uses."""
    r16 = estimate(small_net(), SystemConfig(), 8)
    r8 = estimate(small_net(), SystemConfig(clusters_per_subarray=8), 8)
    assert [lc.inter_transfers for lc in r16.layers] == [16, 0, 0, 16, 0]  # 256 clusters / 16
    assert [lc.inter_transfers for lc in r8.layers] == [32, 0, 0, 32, 0]  # 256 clusters / 8


def test_estimate_hand_check():
    # Every number below is recomputed by hand from the published constants:
    # 6.4 ns / 61.44 pJ per MAC wave, 63 ns / 0.028 uJ intra transfers,
    # 148.5 ns / 0.09 uJ hop-1 inter transfers, 256 clusters.
    rep = estimate(small_net(), SystemConfig(), precision_bits=8)
    assert rep.total_macs == 64800 + 14400

    conv_lat = 254 * 6.4 + 16 * 148.5          # ceil(64800/256)=254 waves + 16 weight hops
    relu_lat = 29 * 63.0                        # ceil(7200/256)=29 intra tiles
    dense_lat = 57 * 6.4 + 16 * 148.5           # ceil(14400/256)=57 waves
    assert rep.latency_ns == pytest.approx(conv_lat + relu_lat + dense_lat, rel=1e-12)

    conv_e = 64800 * 61.44 + 16 * 0.09e6
    relu_e = 29 * 0.028e6
    dense_e = 14400 * 61.44 + 16 * 0.09e6
    assert rep.energy_pj == pytest.approx(conv_e + relu_e + dense_e, rel=1e-12)

    # derived figures follow exactly from the totals
    assert rep.throughput_fps == pytest.approx(1e9 / rep.latency_ns, rel=1e-9)
    assert rep.frames_per_joule == pytest.approx(1e12 / rep.energy_pj, rel=1e-9)
    assert rep.energy_j == pytest.approx(rep.energy_pj * 1e-12, rel=1e-12)


def test_precision_scaling():
    cfg = SystemConfig()
    net = small_net()
    r4 = estimate(net, cfg, 4)
    r8 = estimate(net, cfg, 8)
    r16 = estimate(net, cfg, 16)
    assert r4.latency_ns == r8.latency_ns  # both single-pass
    # 16-bit runs 4 passes per MAC: compute latency and energy scale exactly 4x
    def compute_ns(rep):
        factor = {4: 1, 8: 1, 16: 4}[rep.precision_bits]
        return sum(-(-lc.mac_count // 256) * factor * 6.4 for lc in rep.layers)

    assert compute_ns(r16) == pytest.approx(4 * compute_ns(r8))
    assert sum(lc.macs_effective for lc in r16.layers) == 4 * sum(
        lc.macs_effective for lc in r8.layers
    )


def test_zoo_total_macs():
    expected = {
        "alexnet": 1.135e9,
        "resnet18": 1.814e9,
        "resnet34": 3.664e9,
        "resnet50": 4.089e9,
        "vgg16": 15.470e9,
        "mobilenet_v2": 0.301e9,
    }
    cfg = SystemConfig()
    for name, macs in expected.items():
        rep = estimate(get_network(name), cfg, 8)
        assert rep.total_macs == pytest.approx(macs, rel=0.02), name


def test_network_orderings():
    cfg = SystemConfig()
    fps = {n: estimate(get_network(n), cfg, 8).throughput_fps for n in ("alexnet", "vgg16", "mobilenet_v2")}
    assert fps["alexnet"] > fps["vgg16"]
    assert fps["mobilenet_v2"] > fps["alexnet"]


def test_cluster_doubling():
    net = get_network("alexnet")
    r1 = estimate(net, SystemConfig(cluster_count=256), 8)
    r2 = estimate(net, SystemConfig(cluster_count=512, clusters_per_subarray=16), 8)
    assert r2.latency_ns < r1.latency_ns
    assert r2.energy_pj >= r1.energy_pj  # more clusters used -> no energy savings


def test_resnet50_note_attached():
    rep = estimate(get_network("resnet50"), SystemConfig(), 8)
    assert RESNET50_CLAIM_NOTE in rep.notes
    assert not estimate(get_network("resnet18"), SystemConfig(), 8).notes


def test_report_csv_stable():
    cfg = SystemConfig()
    reps = [estimate(get_network(n), cfg, b) for n in ("vgg16", "alexnet") for b in (8, 4)]
    text = report_csv(reps)
    lines = text.strip().splitlines()
    assert lines[0].startswith("network,precision_bits,clusters,total_macs")
    assert [l.split(",")[0] for l in lines[1:]] == ["alexnet", "alexnet", "vgg16", "vgg16"]
    # column order within a network: ascending precision
    assert [l.split(",")[1] for l in lines[1:3]] == ["4", "8"]
    # byte-identical rerun
    assert report_csv([estimate(get_network(n), cfg, b) for n in ("vgg16", "alexnet") for b in (8, 4)]) == text


def test_layer_csv():
    rep = estimate(small_net(), SystemConfig(), 8)
    lines = layer_csv(rep).strip().splitlines()
    assert lines[0].startswith("layer,kind,mac_count")
    assert len(lines) == 1 + len(rep.layers)


def test_compare_report_annotations():
    rep = estimate(get_network("alexnet"), SystemConfig(), 8)
    text = compare_report([rep])
    for note in PAPER_BASELINE_ANNOTATIONS:
        assert note in text
    assert "alexnet" in text


def test_ledger_agrees_with_perf_model():
    # infer_lut's ledger prices every layer exactly as the analytic mapper does
    rng = np.random.default_rng(0)
    nets = [tinymalnet(), depthwise_residual_network()] + [random_small_network(rng) for _ in range(3)]
    nets.append(strided_depthwise_network())
    cfg = SystemConfig()
    for net in nets:
        ws = init_random_weights(net, seed=int(rng.integers(1 << 20)))
        cal = random_inputs(net, rng, 2)
        for bits in (4, 8, 16):
            _, ledger = infer_lut(prepare_quantized(net, ws, cal, bits), cal[0], cfg)
            rep = estimate(net, cfg, bits)
            # each layer charges its nonzero mac / intra / inter counts, in that order
            events = iter(ledger.events)
            for lc in rep.layers:
                want = {"mac": lc.macs_effective, "intra": lc.intra_transfers, "inter[1]": lc.inter_transfers}
                got = [next(events) for count in want.values() if count]
                where = (net.name, bits, lc.name)
                assert {cat: n for cat, n, _, _ in got} == {c: n for c, n in want.items() if n}, where
                assert sum(ns for _, _, ns, _ in got) == pytest.approx(lc.latency_ns, rel=1e-12, abs=0), where
                assert sum(pj for _, _, _, pj in got) == pytest.approx(lc.energy_pj, rel=1e-12, abs=0), where
            assert next(events, None) is None
            assert ledger.mac_count == sum(lc.macs_effective for lc in rep.layers)
            assert ledger.total_ns == pytest.approx(rep.latency_ns, rel=1e-12)
            assert ledger.total_pj == pytest.approx(rep.energy_pj, rel=1e-12)
            if net.name == "tinymalnet":
                assert ledger.mac_count == {4: 260640, 8: 260640, 16: 1042560}[bits]
