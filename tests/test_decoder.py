import itertools

import numpy as np
import pytest
from conftest import constellation_for, joint_decode, make_channel, random_block

from stssc import decoder
from stssc.batch import simulate_packet_set
from stssc.channel import draw_channel
from stssc.decoder import brute_force_oracle, enumerate_candidates, matched_filter
from stssc.designs import DESIGN_NAMES, build_design
from stssc.errors import ConfigurationError
from stssc.modem import Constellation, get_constellation
from stssc.schemes import relay_gains, stssc_pipeline


def stssc_statistics(block, ch, d, rng):
    """Matched-filter statistics of one stssc block, with the gains its pipeline used."""
    return matched_filter(stssc_pipeline(block, ch, d, rng), ch, d, relay_gains(ch))


def test_matched_filter_single_source_closed_form():
    # noiseless single source: u[0,t] = sqrt(rho) * g^2 * d_t * |h_rd|^2-weighted
    # symbol; with all unit gains this is sqrt(rho) * g^2 * d_t * kappa * x_t
    d = build_design("alamouti")
    c = get_constellation("qpsk")
    rng = np.random.default_rng(3)
    block = random_block(c, 1, d.K, kappa=1.0, rng=rng)
    ch = make_channel(np.ones((1, 2)), np.ones(2), rho=2.5, sigma2=0.0)
    g = relay_gains(ch)
    stats = matched_filter(stssc_pipeline(block, ch, d, rng), ch, d, g)
    expected = np.sqrt(ch.rho) * g[0] ** 2 * d.d * block.raw[0]
    np.testing.assert_allclose(stats.u[0], expected, atol=1e-12)
    # gram = sum_r g_r^2 |h_rd|^2 |h_sr|^2, over two equal relays
    np.testing.assert_allclose(stats.gram, [[2 * g[0] ** 2]], atol=1e-12)


def test_matched_filter_zero_observation():
    d = build_design("alamouti")
    rng = np.random.default_rng(1)
    ch = draw_channel("rayleigh", 2, 2, 1.0, rng)
    stats = matched_filter(np.zeros((d.M, d.T), dtype=complex), ch, d, relay_gains(ch))
    np.testing.assert_allclose(stats.u, 0, atol=1e-14)
    assert np.all(np.diag(stats.gram).real > 0)     # the Gram depends only on the channel


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
        base = stssc_statistics(block, ch, d, rng).u
        pert = random_block(c, N, d.K, kappa, rng)
        for t in range(d.K):
            raw = block.raw.copy()
            raw[:, [s for s in range(d.K) if s != t]] = pert.raw[:, [s for s in range(d.K) if s != t]]
            other = type(block)(X=kappa * raw, raw=raw, kappa=kappa)
            u2 = stssc_statistics(other, ch, d, rng).u
            np.testing.assert_allclose(u2[:, t], base[:, t], rtol=1e-10, atol=1e-12)


def test_enumerate_candidates_order_and_limit():
    c = get_constellation("qpsk")
    cand = enumerate_candidates(c, 2)
    assert cand.shape == (16, 2)
    np.testing.assert_allclose(cand[0], [c.points[0], c.points[0]])
    np.testing.assert_allclose(cand[1], [c.points[0], c.points[1]])     # source-major
    np.testing.assert_allclose(cand[4], [c.points[1], c.points[0]])
    with pytest.raises(ConfigurationError):
        enumerate_candidates(c, 11)                 # 4^11 > 10^6
    with pytest.raises(ConfigurationError):
        enumerate_candidates(c, 10**12)             # rejected without forming 4^(10^12)


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
        return simulate_packet_set(scheme, d, c, 2, 3.0, 1.0, "rayleigh", "perslot", 200, rngs)

    decoder._candidate_table.cache_clear()
    cold = run()
    np.testing.assert_array_equal(run(), cold)


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
        y = stssc_pipeline(block, ch, d, rng)
        g = relay_gains(ch)
        fast = joint_decode(matched_filter(y, ch, d, g), c, kappa, ch.rho, N)
        oracle = brute_force_oracle(y, ch, d, g, cand, kappa)
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
        stats = stssc_statistics(block, ch, d, rng)
        decided = joint_decode(stats, c, kappa, ch.rho, N)
        np.testing.assert_allclose(decided, block.raw, atol=1e-12)


def test_single_source_bpsk_reduces_to_sign_rule():
    # with one BPSK source the joint search must match sign(Re(u))
    d = build_design("alamouti")
    c = get_constellation("bpsk")
    rng = np.random.default_rng(31)
    for _ in range(100):
        ch = draw_channel("rayleigh", 1, 2, 1.0, rng)
        block = random_block(c, 1, d.K, 1.0, rng)
        stats = stssc_statistics(block, ch, d, rng)
        decided = joint_decode(stats, c, 1.0, ch.rho, 1)
        expected = np.where(stats.u[0].real >= 0, 1.0, -1.0)
        np.testing.assert_allclose(decided[0], expected)
