"""Cross-checks of the vectorized Monte Carlo engine: its stssc stages against
the dense dispersion products, the baselines against dense per-block
references written here.  Acceptance criterion 2 checks stssc's decisions
against the brute-force oracle."""

import tracemalloc
from dataclasses import fields
from math import ceil, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stssc import batch
from stssc.batch import (
    SLOT_RULES, SetResult, blocks_per_set, relay_encode, relay_statistics,
    simulate_packet_set, stssc_decode_batch,
)
from stssc.channel import FADING_MODELS, _draw_gains, awgn
from stssc.decoder import enumerate_candidates, first_source_index
from stssc.designs import DESIGN_NAMES, build_design
from stssc.modem import Packet, demap_hard, frame_packets, get_constellation, nearest_points

from conftest import constellation_for


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_relay_statistics_equal_encode_forward_matched_filter(name):
    # the fused statistics skip the relay codewords and the destination's
    # observations, yet equal the encode -> forward -> matched filter chain,
    # with the dense dispersion products A* and B, bit for bit: float64 views
    # compared, sign bits too (assert_array_equal takes -0.0 for 0.0)
    d = build_design(name)
    rng = np.random.default_rng(31)
    B = 4000

    def cn(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def blocks_last(a):
        return np.moveaxis(a, 0, -1).copy()

    q, w, hRD, g = cn(B, d.M, d.K), cn(B, d.M, d.T), cn(B, d.M), rng.random((B, d.M))
    y = hRD[:, :, None] * (g[:, :, None] * relay_encode(d, q)) + w
    P = np.einsum("ktr,brt->brk", d.A.conj(), y)
    Q = np.einsum("ktr,brt->brk", d.B, y.conj())
    ref = np.ascontiguousarray(hRD.conj()[:, :, None] * P + hRD[:, :, None] * Q).view(np.float64)
    fused = relay_statistics(d, blocks_last(q), blocks_last(w), blocks_last(hRD), blocks_last(g))
    got = np.moveaxis(fused, -1, 0).copy().view(np.float64)
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(DESIGN_NAMES), N=st.integers(1, 3), blocks=st.integers(1, 64),
       snr_db=st.floats(-10.0, 40.0), fading=st.sampled_from(FADING_MODELS),
       seed=st.integers(0, 2**32 - 1))
def test_stssc_decisions_unchanged_when_relay_links_turn_by_j(name, N, blocks, snr_db, fading,
                                                               seed):
    # j hRD with j w turns every relay-to-destination observation by j, which
    # the matched filter's conj(hRD) turns back; multiplying by j only swaps
    # real and imaginary parts and flips signs, so nothing rounds differently
    # and every decision must stay exactly as it was
    d = build_design(name)
    c = constellation_for(d)
    rng = np.random.default_rng(seed)
    kappa = 1 / sqrt(N)

    def cn(*shape):
        return awgn((blocks,) + shape, 1.0, rng)

    X = kappa * c.points[rng.integers(0, c.size, size=(blocks, N, d.K))]
    hSR = _draw_gains(fading, rng, (blocks, N, d.M))
    hRD = _draw_gains(fading, rng, (blocks, d.M))
    n, w = cn(d.M, d.K), cn(d.M, d.T)
    xc = kappa * enumerate_candidates(c, N)
    rho = 10.0 ** (snr_db / 10.0)
    decided = stssc_decode_batch(X, hSR, hRD, n, w, d, xc, rho, 1.0)
    turned = stssc_decode_batch(X, hSR, 1j * hRD, n, 1j * w, d, xc, rho, 1.0)
    np.testing.assert_array_equal(turned, decided)


def replayed_bit_errors(scheme, d, c, rho, fading, L, seed):
    """Destination 0's bit errors in one baseline packet set, decided block by block.

    The variates are redrawn from a fresh generator with the packet set's
    seed, in simulate_packet_set's order (bits, gains, first noise, second
    noise, each over all blocks), and every block runs through the dense
    dispersion products of the per-block pipelines and decoders, with unit
    noise variance and N = M = d.M.
    """
    N = M = d.M
    K, T = d.K, d.T
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(N, L))
    blocks = frame_packets([Packet(bits=b, source=s) for s, b in enumerate(bits)], c, K)
    n_blocks, kappa = len(blocks), blocks[0].kappa

    def gains(*shape):
        return _draw_gains(fading, rng, (n_blocks,) + shape)

    def noise(*shape):
        return awgn((n_blocks,) + shape, 1.0, rng)

    decided = np.empty((n_blocks, K), dtype=complex)
    if scheme == "afost":
        # each relay forwards g_r q_r in its own phase; joint search over sources per slot
        hSR, hRD = gains(N, M), gains(M)
        n, w = noise(M, K), noise(M, K)
        cand = enumerate_candidates(c, N)
        for b, block in enumerate(blocks):
            g = np.sqrt(rho / (rho * np.sum(np.abs(hSR[b]) ** 2, axis=0) + 1.0))
            q = sqrt(rho) * (hSR[b].T @ block.X) + n[b]
            y = hRD[b][:, None] * (g[:, None] * q) + w[b]
            F = sqrt(rho) * (g * hRD[b])[:, None] * hSR[b].T               # (M, N)
            model = F @ (kappa * cand).T                                   # (M, C)
            for t in range(K):
                metrics = np.sum(np.abs(y[:, t][:, None] - model) ** 2, axis=0)
                decided[b, t] = cand[np.argmin(metrics), 0]
    elif scheme == "dstc":
        # source 0's phase: relays decide each symbol, then send the code's columns at once
        hSR0, hRD = gains(M), gains(M)
        n, w = noise(M, K), noise(T)
        scale = sqrt(rho / M) * kappa
        weights = (np.abs(d.A) ** 2).sum(1) + (np.abs(d.B) ** 2).sum(1)   # (K, M)
        for b, block in enumerate(blocks):
            q = sqrt(rho) * hSR0[b][:, None] * block.X[0][None, :] + n[b]
            rd = nearest_points(c, q / (sqrt(rho) * kappa * hSR0[b][:, None]))
            cols = np.einsum("ktr,rk->rt", d.A, rd) + np.einsum("ktr,rk->rt", d.B, rd.conj())
            y = scale * (hRD[b] @ cols) + w[b]
            heff = scale * hRD[b]
            P = np.einsum("ktr,t->rk", d.A.conj(), y)
            Q = np.einsum("ktr,t->rk", d.B, y.conj())
            z = heff.conj() @ P + heff @ Q
            decided[b] = nearest_points(c, z / (weights @ np.abs(heff) ** 2))
    else:
        hSD0 = gains()
        w = noise(K)
        for b, block in enumerate(blocks):
            y = sqrt(rho) * hSD0[b] * block.X[0] + w[b]
            decided[b] = nearest_points(c, y / (sqrt(rho) * hSD0[b] * kappa))
    rx = demap_hard(c, decided.ravel()[:ceil(L / c.bits_per_symbol)])[:L]
    return int(np.count_nonzero(rx != bits[0]))


@pytest.mark.parametrize("scheme", ["afost", "dstc", "direct"])
@pytest.mark.parametrize("name", DESIGN_NAMES)
@pytest.mark.parametrize("fading", ["unit-mag", "rayleigh"])
def test_batch_baselines_match_replayed_reference(scheme, name, fading):
    # 5 dB, so every case has errors to count
    d = build_design(name)
    c = constellation_for(d)
    rho, L, seed = 10.0 ** 0.5, 1001, 7
    res = simulate_packet_set(scheme, d, c, d.M, d.M, rho, 1.0, fading, "perslot", L,
                              [np.random.default_rng(seed)])
    assert res.bit_errors == replayed_bit_errors(scheme, d, c, rho, fading, L, seed)
    assert res.bit_errors > 0


@pytest.mark.parametrize("mod", ["bpsk", "qpsk"])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_candidate_table_is_source_major(mod, N):
    c = get_constellation(mod)
    cand = enumerate_candidates(c, N)
    np.testing.assert_array_equal(cand[:, 0],
                                  c.points[first_source_index(c, N, np.arange(len(cand)))])


@pytest.mark.parametrize("mod", ["bpsk", "qpsk"])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("L", [37, 301])
def test_bit_errors_from_indices_match_demapped_points(mod, N, L):
    # random candidate decisions for 8 sets of L bits, framed in 4-symbol blocks;
    # QPSK has a padding bit, and the last block's tail holds padding symbols
    c = get_constellation(mod)
    cand = enumerate_candidates(c, N)
    rng = np.random.default_rng(L + N)
    S, n = 8, 4 * ceil(L / (4 * c.bits_per_symbol))
    idx = rng.integers(0, len(cand), size=(S, n))
    bits = rng.integers(0, 2, size=(S, L))
    expected = [np.count_nonzero(demap_hard(c, cand[i, 0])[:L] != b) for i, b in zip(idx, bits)]
    got = batch.set_bit_errors(c, first_source_index(c, N, idx), bits)
    np.testing.assert_array_equal(got, expected)
    assert got.min() > 0


@pytest.mark.parametrize("N, L", [(1, 1), (3, 7), (2, 128), (3, 101), (4, 1000)])
def test_source_bits_equal_integers_from_fresh_generators(N, L):
    # numpy promises to keep SeedSequence's output stable, not Generator.integers'
    # draws, so this pins source_bits' reading of integers(0, 2) on this numpy
    seeds = [np.random.SeedSequence([5, N, L, s]) for s in range(3)]
    ours = [np.random.default_rng(seed) for seed in seeds]
    ref = [np.random.default_rng(seed) for seed in seeds]
    bits = batch.source_bits(ours, N, L)
    expected = np.stack([rng.integers(0, 2, size=(N, L)) for rng in ref])
    assert bits.dtype == expected.dtype and bits.shape == expected.shape
    np.testing.assert_array_equal(bits, expected)
    for a, b in zip(ours, ref):
        np.testing.assert_array_equal(a.standard_normal(5), b.standard_normal(5))
        # integers keeps an odd count's spare 32-bit half for its next 32-bit draw;
        # source_bits leaves none, so a reused generator would go on differently
        assert b.bit_generator.state["has_uint32"] == (N * L) % 2
        assert a.bit_generator.state["has_uint32"] == 0


def test_slot_rules():
    assert SLOT_RULES["stssc"](2, 2, 2, 2) == 6
    assert SLOT_RULES["afost"](2, 2, 2, 2) == 6
    assert SLOT_RULES["dstc"](2, 2, 2, 2) == 8
    assert SLOT_RULES["direct"](2, 2, 2, 2) == 4
    assert SLOT_RULES["stssc"](3, 3, 3, 4) == 15
    assert SLOT_RULES["afost"](3, 3, 3, 4) == 12
    assert SLOT_RULES["dstc"](3, 3, 3, 4) == 21
    assert SLOT_RULES["direct"](3, 3, 3, 4) == 9


@pytest.mark.parametrize("scheme", ["stssc", "afost", "dstc", "direct"])
def test_packet_set_deterministic(scheme):
    d = build_design("alamouti")
    c = get_constellation("qpsk")
    results = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        results.append(simulate_packet_set(scheme, d, c, 2, 2, 10.0, 1.0,
                                           "rayleigh", "perslot", 200, [rng]))
    assert results[0] == results[1]


@pytest.mark.parametrize("scheme", ["stssc", "afost", "dstc", "direct"])
@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_packet_set_noiseless_error_free(scheme, name):
    d = build_design(name)
    c = constellation_for(d)
    rng = np.random.default_rng(7)
    res = simulate_packet_set(scheme, d, c, d.M, d.M, 10.0, 0.0,
                              "unit-mag", "perslot", 300, [rng])
    assert res.bit_errors == 0
    assert res.packet_error == 0
    assert res.payload_bits == 300


@pytest.mark.parametrize("scheme", ["stssc", "afost", "dstc", "direct"])
@pytest.mark.parametrize("fading", ["unit-mag", "rayleigh"])
@pytest.mark.parametrize("sigma2", [1.0, 0.0])
def test_grouped_sets_equal_sum_of_single_sets(scheme, fading, sigma2):
    # 127 QPSK bits pad to 64 symbols and c34 pads those to 22 blocks of 3 slots
    d = build_design("c34")
    c = get_constellation("qpsk")
    seeds = range(40, 45)

    def run(rngs):
        return simulate_packet_set(scheme, d, c, 3, 3, 3.0, sigma2, fading, "perslot", 127, rngs)

    grouped = run([np.random.default_rng(s) for s in seeds])
    singles = [run([np.random.default_rng(s)]) for s in seeds]
    assert grouped == SetResult(*(sum(getattr(r, f.name) for r in singles)
                                  for f in fields(SetResult)))
    if sigma2:
        assert len({r.bit_errors for r in singles}) > 1


@pytest.mark.parametrize("code, packet_bits", [("alamouti", 3001), ("c34", 5001)])
@pytest.mark.parametrize("fading", ["unit-mag", "rayleigh"])
@pytest.mark.parametrize("sigma2", [1.0, 0.0])
@pytest.mark.parametrize("n_sets", [1, 2])
def test_stssc_tiles_do_not_change_results(monkeypatch, code, packet_bits, fading, sigma2,
                                           n_sets):
    # every scheme runs in tiles of BLOCK_BUDGET blocks.  QPSK sets longer than
    # a 512-block tile: alamouti 3001 bits is 751 blocks, c34 5001 bits pads to
    # 834; with two sets, tiles straddle the set boundary.  A budget of the
    # whole call is one tile, the untiled chain.
    d = build_design(code)
    c = get_constellation("qpsk")
    n_blocks = n_sets * blocks_per_set(d, c, packet_bits)

    def run(scheme, budget):
        monkeypatch.setattr(batch, "BLOCK_BUDGET", budget)
        rngs = [np.random.default_rng(s) for s in range(60, 60 + n_sets)]
        return simulate_packet_set(scheme, d, c, d.M, d.M, 3.0, sigma2, fading, "perslot",
                                   packet_bits, rngs)

    for scheme in batch.SCHEMES:
        whole = run(scheme, n_blocks)
        for budget in (1, 7, 512):
            assert run(scheme, budget) == whole, (scheme, budget)
        assert (whole.bit_errors > 0) == (sigma2 > 0), scheme


# bounds on the traced numpy peak (bytes) of one 100 000-bit unit-mag set at
# 10 dB, which the tiles keep at the raw draws plus one tile's arrays; symbols,
# gains and noise formed for the whole set peaked at 20.7/43.2 (stssc),
# 65.5/76.1 (afost), 30.3/67.3 (dstc) and 13.9/24.4 MB (direct) on c34/c44
MEMORY_BOUNDS = {
    ("stssc", "c34"): 16e6, ("stssc", "c44"): 30e6,
    ("afost", "c34"): 16e6, ("afost", "c44"): 30e6,
    ("dstc", "c34"): 10e6, ("dstc", "c44"): 20e6,
    ("direct", "c34"): 8e6, ("direct", "c44"): 12e6,
}


def traced_peak(scheme, code, fading, packet_bits, sets):
    """Traced numpy peak (bytes) of one call on `sets` packet sets at rho = 10, N = M."""
    d = build_design(code)
    c = constellation_for(d)
    rngs = [np.random.default_rng(3 + i) for i in range(sets)]
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        simulate_packet_set(scheme, d, c, d.M, d.M, 10.0, 1.0, fading, "perslot", packet_bits, rngs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_stssc_set_memory_is_bounded():
    # every scheme on a 100 000-bit set: c34 QPSK is 16 667 blocks, c44 BPSK
    # 25 000; numpy reports its buffers to tracemalloc
    peaks = {key: traced_peak(*key, "unit-mag", 100_000, 1) for key in MEMORY_BOUNDS}
    assert {key: peak for key, peak in peaks.items() if peak >= MEMORY_BOUNDS[key]} == {}


# bounds on the traced numpy peak (bytes) of one call of 32 128-bit sets, a
# single 1024-block tile, whose raw variates are freed once its draws are
# formed; holding them while the tile decided peaked at 4.20 (afost/c44),
# 1.48 (afost/alamouti), 5.74 (stssc/c44) and 3.31 MB (dstc/c44), and freeing
# them gave 3.35, 1.25, 5.05 and 2.85 MB
ONE_TILE_MEMORY_BOUNDS = {
    ("afost", "c44", "rayleigh"): 3.7e6, ("afost", "alamouti", "rayleigh"): 1.35e6,
    ("stssc", "c44", "unit-mag"): 5.4e6, ("dstc", "c44", "rayleigh"): 3.05e6,
}


def test_one_tile_call_frees_its_raw_variates_before_deciding():
    peaks = {key: traced_peak(*key, 128, 32) for key in ONE_TILE_MEMORY_BOUNDS}
    assert {key: peak for key, peak in peaks.items()
            if peak >= ONE_TILE_MEMORY_BOUNDS[key]} == {}


# (bit_errors, payload_bits, packet_error, slots) of two 5000-bit sets (seeds
# 81 and 82) at 5 dB, N = M, as the simulator gave them before its tile loop
# served every scheme; each call spans two or more 1024-block tiles
PINNED_RESULTS = {
    ("stssc", "alamouti", "unit-mag"): (2196, 10000, 2, 15000),
    ("stssc", "alamouti", "rayleigh"): (2573, 10000, 2, 15000),
    ("stssc", "c34", "unit-mag"): (2342, 10000, 2, 25020),
    ("stssc", "c34", "rayleigh"): (2830, 10000, 2, 25020),
    ("stssc", "c44", "unit-mag"): (1711, 10000, 2, 50000),
    ("stssc", "c44", "rayleigh"): (2173, 10000, 2, 50000),
    ("afost", "alamouti", "unit-mag"): (2164, 10000, 2, 15000),
    ("afost", "alamouti", "rayleigh"): (2603, 10000, 2, 15000),
    ("afost", "c34", "unit-mag"): (2303, 10000, 2, 20016),
    ("afost", "c34", "rayleigh"): (2781, 10000, 2, 20016),
    ("afost", "c44", "unit-mag"): (1719, 10000, 2, 50000),
    ("afost", "c44", "rayleigh"): (2108, 10000, 2, 50000),
    ("dstc", "alamouti", "unit-mag"): (2105, 10000, 2, 20000),
    ("dstc", "alamouti", "rayleigh"): (2658, 10000, 2, 20000),
    ("dstc", "c34", "unit-mag"): (2740, 10000, 2, 35028),
    ("dstc", "c34", "rayleigh"): (3119, 10000, 2, 35028),
    ("dstc", "c44", "unit-mag"): (1923, 10000, 2, 80000),
    ("dstc", "c44", "rayleigh"): (2515, 10000, 2, 80000),
    ("direct", "alamouti", "unit-mag"): (1079, 10000, 2, 10000),
    ("direct", "alamouti", "rayleigh"): (1686, 10000, 2, 10000),
    ("direct", "c34", "unit-mag"): (1534, 10000, 2, 15012),
    ("direct", "c34", "rayleigh"): (2090, 10000, 2, 15012),
    ("direct", "c44", "unit-mag"): (1041, 10000, 2, 40000),
    ("direct", "c44", "rayleigh"): (1675, 10000, 2, 40000),
}


@pytest.mark.parametrize("scheme, code, fading", list(PINNED_RESULTS))
def test_results_are_pinned(scheme, code, fading):
    # a changed decision, random draw or slot count changes these totals
    d = build_design(code)
    res = simulate_packet_set(scheme, d, constellation_for(d), d.M, d.M, 10 ** 0.5, 1.0, fading,
                              "perslot", 5000, [np.random.default_rng(s) for s in (81, 82)])
    assert res == SetResult(*PINNED_RESULTS[scheme, code, fading])


def test_packet_set_slot_accounting():
    d = build_design("alamouti")
    c = get_constellation("qpsk")
    rng = np.random.default_rng(7)
    # 200 bits / (2 bits/sym * 2 slots) = 50 blocks
    res = simulate_packet_set("stssc", d, c, 2, 2, 1.0, 1.0, "unit-mag",
                              "perslot", 200, [rng])
    assert res.slots == 50 * 6


def test_direct_low_snr_random_guessing():
    # at -30 dB the direct BPSK link is noise-dominated: BER near 0.5
    d = build_design("alamouti")
    c = get_constellation("bpsk")
    rng = np.random.default_rng(99)
    total = err = 0
    for _ in range(50):
        res = simulate_packet_set("direct", d, c, 2, 2, 1e-3, 1.0, "rayleigh",
                                  "perslot", 1000, [rng])
        err += res.bit_errors
        total += res.payload_bits
    assert err / total == pytest.approx(0.5, abs=0.02)
