import math

import numpy as np
import pytest

from lutpim.system import (
    INTER_DELAY_NS,
    INTER_ENERGY_UJ,
    INTRA_DELAY_NS,
    INTRA_ENERGY_UJ,
    EnergyLedger,
    SystemConfig,
)


def test_published_comm_constants():
    assert INTRA_DELAY_NS == 63.0
    assert INTRA_ENERGY_UJ == 0.028
    assert INTER_DELAY_NS == {1: 148.5, 7: 196.5, 15: 260.5}
    assert INTER_ENERGY_UJ == {1: 0.09, 7: 0.12, 15: 0.17}


def test_account_macs_worked_example():
    # 1e6 MACs over 256 clusters: ceil(1e6/256)=3907 waves of 6.4 ns = 25004.8 ns;
    # energy is per-MAC: 1e6 * 61.44 pJ = 61.44 uJ.
    led = EnergyLedger()
    led.account_macs(SystemConfig(), 1_000_000)
    assert led.compute_ns == pytest.approx(3907 * 6.4) == pytest.approx(25004.8)
    assert led.compute_pj == pytest.approx(61.44e6)
    assert led.mac_count == 1_000_000


def test_account_macs_edges():
    led = EnergyLedger()
    led.account_macs(SystemConfig(), 0)
    assert led.compute_ns == 0.0 and led.events == []
    led.account_macs(SystemConfig(), 256)  # exactly one wave
    assert led.compute_ns == pytest.approx(6.4)
    led2 = EnergyLedger().account_macs(SystemConfig(), 257)  # one straggler wave
    assert led2.compute_ns == pytest.approx(12.8)
    with pytest.raises(ValueError):
        EnergyLedger().account_macs(SystemConfig(), -1)


def test_transfers():
    led = EnergyLedger()
    led.account_transfer("intra")
    assert led.comm_ns == pytest.approx(63.0)
    assert led.comm_pj == pytest.approx(0.028e6)
    led.account_transfer("inter", count=2)
    assert led.comm_ns == pytest.approx(63.0 + 2 * 148.5)
    assert led.comm_pj == pytest.approx((0.028 + 2 * 0.09) * 1e6)
    assert [e[:2] for e in led.events] == [("intra", 1), ("inter[1]", 2)]
    with pytest.raises(ValueError):
        led.account_transfer("warp")


def test_summary_worked_example():
    led = EnergyLedger()
    led.account_macs(SystemConfig(), 256)
    led.account_transfer("intra")
    s = led.summary()
    assert s["total_ns"] == pytest.approx(6.4 + 63.0)
    assert s["total_pj"] == pytest.approx(256 * 61.44 + 28000.0)
    assert s["breakdown"]["mac"]["count"] == 256
    assert s["breakdown"]["intra"]["count"] == 1


def test_summary_idempotent():
    led = EnergyLedger().account_macs(SystemConfig(), 1000).account_transfer("inter", count=3)
    assert led.summary() == led.summary()


def test_totals_equal_event_sums():
    rng = np.random.default_rng(11)
    led = EnergyLedger()
    cfg = SystemConfig()
    for _ in range(200):
        roll = rng.integers(0, 3)
        if roll == 0:
            led.account_macs(cfg, int(rng.integers(1, 10_000)))
        elif roll == 1:
            led.account_transfer("intra")
        else:
            led.account_transfer("inter", count=int(rng.integers(1, 16)))
    total_ns = sum(ns for _, _, ns, _ in led.events)
    total_pj = sum(pj for _, _, _, pj in led.events)
    assert led.compute_ns + led.comm_ns == pytest.approx(total_ns)
    assert led.compute_pj + led.comm_pj == pytest.approx(total_pj)


def test_cluster_scaling_halves_latency():
    n = 1 << 20  # divisible by both cluster counts: no ceiling slack
    t1 = EnergyLedger().account_macs(SystemConfig(cluster_count=256), n).compute_ns
    t2 = EnergyLedger().account_macs(SystemConfig(cluster_count=512, clusters_per_subarray=16), n).compute_ns
    assert t2 == pytest.approx(t1 / 2)
    # energy is per-MAC and does not change with parallelism
    e1 = EnergyLedger().account_macs(SystemConfig(cluster_count=256), n).compute_pj
    e2 = EnergyLedger().account_macs(SystemConfig(cluster_count=512, clusters_per_subarray=16), n).compute_pj
    assert e1 == pytest.approx(e2)


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(cluster_count=0)
    with pytest.raises(ValueError):
        SystemConfig(cluster_count=100, clusters_per_subarray=16)
    with pytest.raises(ValueError):
        SystemConfig(precision_bits=5)
    cfg = SystemConfig(cluster_count=512, clusters_per_subarray=16)
    assert cfg.cluster_count == 512
