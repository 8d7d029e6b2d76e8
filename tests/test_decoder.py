import itertools

import numpy as np
import pytest
from conftest import constellation_for, make_channel, random_block

from stssc import decoder
from stssc.batch import simulate_packet_set
from stssc.channel import draw_channel
from stssc.decoder import (
    DecoderStatistics,
    afost_ml_decode,
    brute_force_oracle,
    direct_ml_decode,
    dstc_mrc_ml_decode,
    enumerate_candidates,
    extend_conjugate,
    joint_ml_decode,
    joint_ml_decode_slot,
    matched_filter,
    per_symbol_metric,
    slot_metrics,
)
from stssc.designs import DESIGN_NAMES, build_design
from stssc.errors import ConfigurationError, UsageError
from stssc.modem import Constellation, get_constellation
from stssc.schemes import (
    af_ost_pipeline,
    direct_pipeline,
    dstc_pipeline,
    relay_gains,
    stssc_pipeline,
)


def test_extend_conjugate():
    np.testing.assert_allclose(extend_conjugate([1 + 1j, 2]), [1 + 1j, 2, 1 - 1j, 2])
    np.testing.assert_allclose(extend_conjugate(np.zeros(3)), np.zeros(6))
    real = np.array([0.5, -2.0])
    out = extend_conjugate(real)
    np.testing.assert_allclose(out[:2], out[2:])


def test_matched_filter_rejects_wrong_trace():
    rng = np.random.default_rng(0)
    ch = draw_channel("unit-mag", 2, 2, 1.0, rng)
    block = random_block(get_constellation("qpsk"), 2, 2, 1 / np.sqrt(2), rng)
    tr = af_ost_pipeline(block, ch, rng)
    with pytest.raises(UsageError):
        matched_filter(tr, ch, build_design("alamouti"), relay_gains(ch))


def test_matched_filter_single_source_closed_form():
    # noiseless single source: u[0,t] = sqrt(rho) * g^2 * d_t * |h_rd|^2-weighted
    # symbol; with all unit gains this is sqrt(rho) * g^2 * d_t * kappa * x_t
    d = build_design("alamouti")
    c = get_constellation("qpsk")
    rng = np.random.default_rng(3)
    block = random_block(c, 1, d.K, kappa=1.0, rng=rng)
    ch = make_channel(np.ones((1, 2)), np.ones(2), rho=2.5, sigma2=0.0)
    tr = stssc_pipeline(block, ch, d, rng)
    g = relay_gains(ch)
    stats = matched_filter(tr, ch, d, g)
    expected = np.sqrt(ch.rho) * g[0] ** 2 * d.d * block.raw[0]
    np.testing.assert_allclose(stats.u[0], expected, atol=1e-12)
    # v[s,t] = sum_r g^2 d_t |h_sr|^2 T |h_rd|^2
    np.testing.assert_allclose(stats.v[0], g[0] ** 2 * d.d * d.T * 2, atol=1e-12)


def test_matched_filter_zero_observation():
    d = build_design("alamouti")
    rng = np.random.default_rng(1)
    ch = draw_channel("rayleigh", 2, 2, 1.0, rng)
    block = random_block(get_constellation("qpsk"), 2, d.K, 1 / np.sqrt(2), rng)
    tr = stssc_pipeline(block, ch, d, rng)
    tr.yRD = np.zeros_like(tr.yRD)
    stats = matched_filter(tr, ch, d, relay_gains(ch))
    np.testing.assert_allclose(stats.u, 0, atol=1e-14)
    assert stats.yNormSq == 0.0
    assert np.all(stats.v > 0)          # v depends only on the channel


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_decoupling_other_slot_symbols(name):
    # noiseless u[:, t] must not move when any other slot's symbols change
    d = build_design(name)
    c = constellation_for(d)
    N = d.M
    kappa = 1 / np.sqrt(N)
    rng = np.random.default_rng(11)
    for _ in range(20):
        ch = draw_channel("rayleigh", N, d.M, 1.0, rng, sigma2=0.0)
        block = random_block(c, N, d.K, kappa, rng)
        base = matched_filter(stssc_pipeline(block, ch, d, rng), ch, d, relay_gains(ch)).u
        pert = random_block(c, N, d.K, kappa, rng)
        for t in range(d.K):
            raw = block.raw.copy()
            raw[:, [s for s in range(d.K) if s != t]] = pert.raw[:, [s for s in range(d.K) if s != t]]
            other = type(block)(X=kappa * raw, raw=raw, kappa=kappa)
            u2 = matched_filter(stssc_pipeline(other, ch, d, rng), ch, d, relay_gains(ch)).u
            np.testing.assert_allclose(u2[:, t], base[:, t], rtol=1e-10, atol=1e-12)


def test_per_symbol_metric_values():
    stats = DecoderStatistics(
        u=np.array([[1.0 + 0j]]), v=np.array([[1.0]]), yNormSq=0.0,
        gram=np.ones((1, 1, 1), dtype=complex),
    )
    assert per_symbol_metric(stats, 0, 0, 1.0, rho=1.0) == pytest.approx(-1.0)
    assert per_symbol_metric(stats, 0, 0, 0.0, rho=1.0) == pytest.approx(0.0)
    # doubling rho: e = yNormSq - 2 sqrt(2) Re(u x*) + 2 v |x|^2
    assert per_symbol_metric(stats, 0, 0, 1.0, rho=2.0) == pytest.approx(
        -2 * np.sqrt(2) + 2
    )


def test_enumerate_candidates_order_and_limit():
    c = get_constellation("qpsk")
    cand = enumerate_candidates(c, 2)
    assert cand.shape == (16, 2)
    np.testing.assert_allclose(cand[0], [c.points[0], c.points[0]])
    np.testing.assert_allclose(cand[1], [c.points[0], c.points[1]])     # source-major
    np.testing.assert_allclose(cand[4], [c.points[1], c.points[0]])
    with pytest.raises(ConfigurationError):
        enumerate_candidates(c, 11)                 # 4^11 > 10^6


def test_enumerate_candidates_table_is_shared_and_read_only():
    c = get_constellation("qpsk")
    cand = enumerate_candidates(c, 2)
    assert enumerate_candidates(get_constellation("qpsk"), 2) is cand
    assert not cand.flags.writeable
    with pytest.raises(ValueError):
        cand[0, 0] = 0
    assert enumerate_candidates(c, 3).shape == (64, 3)          # N is part of the key


def test_enumerate_candidates_keyed_on_points():
    c = get_constellation("qpsk")
    cand = enumerate_candidates(c, 2)
    assert enumerate_candidates(Constellation("copy", c.points.copy(), 2, False), 2) is cand
    rotated = Constellation("rotated", 1j * c.points, 2, False)
    table = enumerate_candidates(rotated, 2)
    assert table is not cand
    np.testing.assert_array_equal(table, list(itertools.product(rotated.points, repeat=2)))


def test_enumerate_candidates_limit_checked_on_every_call(monkeypatch):
    c = get_constellation("qpsk")
    enumerate_candidates(c, 2)
    monkeypatch.setattr(decoder, "MAX_CANDIDATES", 15)
    with pytest.raises(ConfigurationError):
        enumerate_candidates(c, 2)                  # 16 > 15, though already built


@pytest.mark.parametrize("scheme", ["stssc", "afost"])
def test_shared_candidate_table_leaves_batched_chain_unchanged(scheme):
    # the batched chain reads the table as cand[idx, 0] and kappa * cand:
    # both are fresh arrays, and a cold and a warm table give the same result
    d = build_design("alamouti")
    c = get_constellation("qpsk")
    cand = enumerate_candidates(c, 2)
    before = cand.copy()
    picked = cand[np.array([[3, 0], [15, 7]]), 0]
    scaled = 0.5 * cand
    picked[:] = 0
    scaled[:] = 0
    np.testing.assert_array_equal(cand, before)

    def run():
        rngs = [np.random.default_rng(s) for s in range(3)]
        return simulate_packet_set(scheme, d, c, 2, 2, 3.0, 1.0, "rayleigh", "perslot", 200, rngs)

    decoder._candidate_table.cache_clear()
    cold = run()
    assert run() == cold


def test_slot_metric_constant_shift_invariance():
    d = build_design("alamouti")
    c = get_constellation("qpsk")
    rng = np.random.default_rng(5)
    ch = draw_channel("rayleigh", 2, 2, 10.0, rng)
    block = random_block(c, 2, d.K, 1 / np.sqrt(2), rng)
    stats = matched_filter(stssc_pipeline(block, ch, d, rng), ch, d, relay_gains(ch))
    shifted = DecoderStatistics(
        u=stats.u.copy(), v=stats.v.copy(), yNormSq=stats.yNormSq + 123.0,
        gram=stats.gram.copy(),
    )
    cand = enumerate_candidates(c, 2)
    for t in range(d.K):
        m0 = slot_metrics(stats, t, cand, block.kappa, ch.rho)
        m1 = slot_metrics(shifted, t, cand, block.kappa, ch.rho)
        assert np.argmin(m0) == np.argmin(m1)
        np.testing.assert_allclose(m1 - m0, 123.0, atol=1e-9)


@pytest.mark.parametrize("name", DESIGN_NAMES)
@pytest.mark.parametrize("fading", ["unit-mag", "rayleigh"])
def test_joint_decode_matches_brute_force(name, fading):
    d = build_design(name)
    c = constellation_for(d)
    N = d.M
    kappa = 1 / np.sqrt(N)
    rng = np.random.default_rng(17)
    cand = enumerate_candidates(c, N)
    for trial in range(50):
        ch = draw_channel(fading, N, d.M, 10.0 ** (trial % 3), rng)
        block = random_block(c, N, d.K, kappa, rng)
        tr = stssc_pipeline(block, ch, d, rng)
        g = relay_gains(ch)
        stats = matched_filter(tr, ch, d, g)
        fast = joint_ml_decode(stats, c, kappa, ch.rho, N)
        oracle = brute_force_oracle(tr, ch, d, g, cand, kappa)
        np.testing.assert_array_equal(fast, oracle)


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_joint_decode_noiseless_exact(name):
    d = build_design(name)
    c = constellation_for(d)
    N = d.M
    kappa = 1 / np.sqrt(N)
    rng = np.random.default_rng(23)
    for _ in range(10):
        ch = draw_channel("unit-mag", N, d.M, 1.0, rng, sigma2=0.0)
        block = random_block(c, N, d.K, kappa, rng)
        stats = matched_filter(stssc_pipeline(block, ch, d, rng), ch, d, relay_gains(ch))
        decided = joint_ml_decode(stats, c, kappa, ch.rho, N)
        np.testing.assert_allclose(decided, block.raw, atol=1e-12)


def test_joint_decode_slot_matches_full_decode():
    d = build_design("alamouti")
    c = get_constellation("qpsk")
    rng = np.random.default_rng(2)
    ch = draw_channel("rayleigh", 2, 2, 10.0, rng)
    block = random_block(c, 2, d.K, 1 / np.sqrt(2), rng)
    stats = matched_filter(stssc_pipeline(block, ch, d, rng), ch, d, relay_gains(ch))
    full = joint_ml_decode(stats, c, block.kappa, ch.rho, 2)
    for t in range(d.K):
        np.testing.assert_array_equal(
            joint_ml_decode_slot(stats, t, c, block.kappa, ch.rho, 2), full[:, t]
        )


def test_single_source_bpsk_reduces_to_sign_rule():
    # with one BPSK source the joint search must match sign(Re(u))
    d = build_design("alamouti")
    c = get_constellation("bpsk")
    rng = np.random.default_rng(31)
    for _ in range(100):
        ch = draw_channel("rayleigh", 1, 2, 1.0, rng)
        block = random_block(c, 1, d.K, 1.0, rng)
        stats = matched_filter(stssc_pipeline(block, ch, d, rng), ch, d, relay_gains(ch))
        decided = joint_ml_decode(stats, c, 1.0, ch.rho, 1)
        expected = np.where(stats.u[0].real >= 0, 1.0, -1.0)
        np.testing.assert_allclose(decided[0], expected)


def test_afost_decode_matches_independent_reimplementation():
    # re-derived decoder: whiten nothing, just rebuild y_r = sqrt(rho) g_r h_rd
    # (sum_s h_sr x_s) per candidate with a fresh loop-based implementation
    c = get_constellation("qpsk")
    rng = np.random.default_rng(41)
    cand = enumerate_candidates(c, 2)
    for trial in range(200):
        ch = draw_channel("rayleigh" if trial % 2 else "unit-mag", 2, 2, 10.0, rng)
        block = random_block(c, 2, 2, 1 / np.sqrt(2), rng)
        tr = af_ost_pipeline(block, ch, rng)
        g = relay_gains(ch)
        fast = afost_ml_decode(tr, ch, g, c, block.kappa, ch.rho)
        for t in range(2):
            best, best_m = None, np.inf
            for x in cand:
                m = 0.0
                for r in range(2):
                    pred = np.sqrt(ch.rho) * g[r] * ch.hRD[r] * np.dot(ch.hSR[:, r], block.kappa * x)
                    m += abs(tr.yRD[r, t] - pred) ** 2
                if m < best_m:
                    best, best_m = x, m
            np.testing.assert_array_equal(fast[:, t], best)


def test_afost_noiseless_exact():
    c = get_constellation("qpsk")
    rng = np.random.default_rng(43)
    ch = draw_channel("unit-mag", 2, 2, 1.0, rng, sigma2=0.0)
    block = random_block(c, 2, 2, 1 / np.sqrt(2), rng)
    tr = af_ost_pipeline(block, ch, rng)
    decided = afost_ml_decode(tr, ch, relay_gains(ch), c, block.kappa, ch.rho)
    np.testing.assert_allclose(decided, block.raw, atol=1e-12)


def test_dstc_decode_noiseless_and_hand_combiner():
    d = build_design("alamouti")
    c = get_constellation("qpsk")
    rng = np.random.default_rng(47)
    ch = draw_channel("rayleigh", 2, 2, 10.0, rng, sigma2=0.0)
    block = random_block(c, 2, d.K, 1 / np.sqrt(2), rng)
    tr = dstc_pipeline(block, ch, d, c, rng)
    decided = dstc_mrc_ml_decode(tr, ch, d, c, block.kappa)
    np.testing.assert_allclose(decided, block.raw, atol=1e-12)
    # hand-built Alamouti combiner for source 0: (h1* y1 + h2 y2*) / (|h1|^2+|h2|^2)
    h = np.sqrt(ch.rho / 2) * block.kappa * ch.hRD
    y = tr.yDSTC[0]
    est1 = (np.conj(h[0]) * y[0] + h[1] * np.conj(y[1])) / np.sum(np.abs(h) ** 2)
    est2 = (np.conj(h[1]) * y[0] - h[0] * np.conj(y[1])) / np.sum(np.abs(h) ** 2)
    np.testing.assert_allclose([est1, est2], block.raw[0], atol=1e-10)


def test_dstc_all_relays_wrong_decodes_wrong():
    d = build_design("alamouti")
    c = get_constellation("bpsk")
    rng = np.random.default_rng(53)
    ch = draw_channel("unit-mag", 2, 2, 1.0, rng, sigma2=0.0)
    block = random_block(c, 2, d.K, 1 / np.sqrt(2), rng)
    tr = dstc_pipeline(block, ch, d, c, rng)
    tr.yDSTC = -tr.yDSTC            # equivalent to every relay flipping every BPSK symbol
    decided = dstc_mrc_ml_decode(tr, ch, d, c, block.kappa)
    np.testing.assert_allclose(decided, -block.raw, atol=1e-12)


def test_direct_decode_rules():
    c = get_constellation("bpsk")
    assert direct_ml_decode([-0.1], 1.0, c, 1.0, 1.0)[0] == -1.0
    assert direct_ml_decode([0.1], 1.0, c, 1.0, 1.0)[0] == 1.0
    # phase channel fully compensated
    qpsk = get_constellation("qpsk")
    x = qpsk.points[[0, 3, 2]]
    y = np.sqrt(2.0) * 1j * x
    np.testing.assert_allclose(direct_ml_decode(y, 1j, qpsk, 2.0, 1.0), x, atol=1e-12)
    # h = 0: every candidate ties, first point wins
    np.testing.assert_allclose(direct_ml_decode([5.0, -5.0], 0.0, c, 1.0, 1.0), [1.0, 1.0])


def test_decode_rejects_wrong_traces():
    rng = np.random.default_rng(0)
    d = build_design("alamouti")
    c = get_constellation("qpsk")
    ch = draw_channel("unit-mag", 2, 2, 1.0, rng)
    block = random_block(c, 2, 2, 1 / np.sqrt(2), rng)
    stssc_tr = stssc_pipeline(block, ch, d, rng)
    with pytest.raises(UsageError):
        afost_ml_decode(stssc_tr, ch, relay_gains(ch), c, block.kappa, ch.rho)
    with pytest.raises(UsageError):
        dstc_mrc_ml_decode(stssc_tr, ch, d, c, block.kappa)
    with pytest.raises(UsageError):
        brute_force_oracle(af_ost_pipeline(block, ch, rng), ch, d, relay_gains(ch),
                           enumerate_candidates(c, 2), block.kappa)
