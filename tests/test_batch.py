"""Cross-checks of the vectorized Monte Carlo engine: its stssc stages against
the dense dispersion products, the baselines against dense per-block
references written here.  Acceptance criterion 2 checks stssc's decisions
against the brute-force oracle."""

import tracemalloc
from math import ceil, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stssc import _kernels, batch
from stssc.batch import (
    SLOT_RULES, blocks_per_set, relay_encode, relay_statistics,
    simulate_packet_set, stssc_decode_batch,
)
from stssc.channel import FADING_MODELS, ChannelRealization, _draw_gains, awgn
from stssc.decoder import enumerate_candidates, first_source_index, matched_filter
from stssc.designs import DESIGN_NAMES, build_design
from stssc.modem import (
    Packet, _pad_bits, demap_hard, frame_packets, get_constellation, label_bits, nearest_points,
    point_index,
)

from conftest import constellation_for


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_relay_statistics_equal_encode_forward_matched_filter(name):
    # the fused statistics skip the relay codewords and the destination's
    # observations, yet equal the encode -> forward -> matched filter chain,
    # with the dense dispersion products A* and B, bit for bit: float64 views
    # compared, sign bits too (assert_array_equal takes -0.0 for 0.0).  The
    # per-block matched_filter's signed gather gives that dense form's u too.
    d = build_design(name)
    rng = np.random.default_rng(31)
    B = 4000

    def cn(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def blocks_last(a):
        return np.moveaxis(a, 0, -1).copy()

    q, w, hRD, g = cn(B, d.M, d.K), cn(B, d.M, d.T), cn(B, d.M), rng.random((B, d.M))
    cols = np.moveaxis(relay_encode(d, blocks_last(q)), -1, 0)                     # (B, M, T)
    y = hRD[:, :, None] * (g[:, :, None] * cols) + w
    P = np.einsum("ktr,brt->brk", d.A.conj(), y)
    Q = np.einsum("ktr,brt->brk", d.B, y.conj())
    dense = np.ascontiguousarray(hRD.conj()[:, :, None] * P + hRD[:, :, None] * Q)  # (B, M, K)
    ref = dense.view(np.float64)
    fused = relay_statistics(d, blocks_last(q), blocks_last(w), blocks_last(hRD), blocks_last(g))
    got = np.moveaxis(fused, -1, 0).copy().view(np.float64)
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))

    hSR = cn(B, 2, d.M)
    for b in range(500):
        ch = ChannelRealization(hSR=hSR[b], hRD=hRD[b], rho=1.0, sigma2=1.0)
        u = matched_filter(y[b], ch, d, g[b]).u.view(np.float64)
        u_ref = np.einsum("r,sr,rk->sk", g[b], hSR[b].conj(), dense[b]).view(np.float64)
        np.testing.assert_array_equal(u, u_ref)
        np.testing.assert_array_equal(np.signbit(u), np.signbit(u_ref))


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
    X, hSR, hRD, n, w = (np.moveaxis(a, 0, -1) for a in (X, hSR, hRD, n, w))   # blocks last
    decided = stssc_decode_batch(X, hSR, hRD, n, w, d, xc, rho, 1.0)
    turned = stssc_decode_batch(X, hSR, 1j * hRD, n, 1j * w, d, xc, rho, 1.0)
    np.testing.assert_array_equal(turned, decided)


@pytest.mark.parametrize("name", DESIGN_NAMES)
@pytest.mark.parametrize("fading", FADING_MODELS)
def test_stssc_decisions_equal_afost_on_relabelled_forwarding_noise(name, fading):
    # with block-constant gains and relays forwarding in turn, stssc's symbol t
    # of relay r carries the forwarding sample w[r, slot[r, t]] with sign[r, t],
    # and a conjugated symbol its conjugate turned by hRD / conj(hRD) through
    # the matched filter; afost, given those samples as its own forwarding
    # noise, decides every slot exactly as stssc does
    d = build_design(name)
    c = constellation_for(d)
    N, M, B = d.M, d.M, 2000
    rng = np.random.default_rng(31)
    kappa = 1 / sqrt(N)
    X = kappa * c.points[rng.integers(0, c.size, size=(B, N, d.K))]
    hSR = _draw_gains(fading, rng, (B, N, M))
    hRD = _draw_gains(fading, rng, (B, M))
    n, w = awgn((B, M, d.K), 1.0, rng), awgn((B, M, d.T), 1.0, rng)
    picked = d.sign * w[:, np.arange(M)[:, None], d.slot]                         # (B, M, K)
    w_a = np.where(d.conjugated, picked.conj() * (hRD / hRD.conj())[:, :, None], picked)
    xc = kappa * enumerate_candidates(c, N)
    X, hSR, hRD, n, w, w_a = (np.moveaxis(a, 0, -1) for a in (X, hSR, hRD, n, w, w_a))
    for snr_db in (-5, 0, 10, 20, 40):
        rho = 10.0 ** (snr_db / 10.0)
        stssc = stssc_decode_batch(X, hSR, hRD, n, w, d, xc, rho, 1.0)
        afost = _kernels.afost_argmin(*batch.afost_observations(X, hSR, hRD, n, w_a, rho, 1.0), xc)
        assert np.count_nonzero(stssc != afost) == 0, snr_db


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
    errors = simulate_packet_set(scheme, d, c, d.M, rho, 1.0, fading, "perslot", L,
                                 [np.random.default_rng(seed)])
    assert errors.tolist() == [replayed_bit_errors(scheme, d, c, rho, fading, L, seed)]
    assert errors[0] > 0


@pytest.mark.parametrize("mod", ["bpsk", "qpsk"])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_candidate_table_is_source_major(mod, N):
    c = get_constellation(mod)
    cand = enumerate_candidates(c, N)
    np.testing.assert_array_equal(cand[:, 0],
                                  c.points[first_source_index(c, N, np.arange(len(cand)))])


def sent_indices(c, bits, n):
    """(S, n) point indices of (S, L) bits, the last symbol zero-padded, then padding symbols."""
    sent = np.full((len(bits), n), c.size, dtype=np.int8)
    syms = point_index(c, _pad_bits(bits, c.bits_per_symbol)).reshape(len(bits), -1)
    sent[:, :syms.shape[1]] = syms
    return sent


@settings(max_examples=200, deadline=None)
@given(mod=st.sampled_from(["bpsk", "qpsk"]), L=st.integers(1, 41), pad=st.integers(0, 3),
       data=st.data())
def test_bit_errors_from_indices_equal_label_bit_errors(mod, L, pad, data):
    # an odd L pads QPSK's last symbol with a low bit; pad padding symbols follow
    c = get_constellation(mod)
    n = ceil(L / c.bits_per_symbol) + pad
    S = data.draw(st.integers(1, 4), label="sets")
    decided = data.draw(hnp.arrays(np.int8, (S, n), elements=st.integers(0, c.size - 1)),
                        label="decided")
    bits = data.draw(hnp.arrays(np.int64, (S, L), elements=st.integers(0, 1)), label="bits")
    expected = np.count_nonzero(label_bits(c, decided).reshape(S, -1)[:, :L] != bits, axis=1)
    got = batch.set_bit_errors(c, decided, sent_indices(c, bits, n), L)
    np.testing.assert_array_equal(got, expected)


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
    got = batch.set_bit_errors(c, first_source_index(c, N, idx), sent_indices(c, bits, n), L)
    np.testing.assert_array_equal(got, expected)
    assert got.min() > 0


class CountingGenerator:
    """A Generator that records which of its attributes a draw looks up."""

    def __init__(self, rng):
        self.rng, self.looked_up = rng, []

    def __getattr__(self, name):
        self.looked_up.append(name)
        return getattr(self.rng, name)


@pytest.mark.parametrize("scheme", batch.SCHEMES)
@pytest.mark.parametrize("fading", FADING_MODELS)
@pytest.mark.parametrize("N, L", [(1, 1), (3, 127), (3, 128), (4, 1001)])
def test_two_fill_draw_equals_draws_in_rule_order(scheme, fading, N, L):
    # numpy promises to keep SeedSequence's output stable, not Generator's
    # draws, so this pins draw_sets' reading of them on this numpy: each set
    # draws its N*L bits (odd or even) as integers(0, 2), then every DRAW_RULES
    # array over all its blocks, gains before noise, a gain as one uniform
    # (unit-mag) or two normals (rayleigh) and noise as two normals, each a
    # Generator call of its own; draw_sets makes one raw-word call and one
    # normal call, and a unit-mag gain's k is its uniform times 2^53
    d = build_design("c34")
    c = get_constellation("qpsk")
    n_blocks = blocks_per_set(d, c, L)
    rules = batch.DRAW_RULES[scheme](N, d.M, d.K, d.T)
    seeds = [np.random.SeedSequence([5, N, L, s]) for s in range(3)]
    ours = [CountingGenerator(np.random.default_rng(seed)) for seed in seeds]
    ref = [np.random.default_rng(seed) for seed in seeds]
    bits, variates = batch.draw_sets(rules, fading, N, L, n_blocks, ours)
    assert [rng.looked_up for rng in ours] == [["bit_generator", "standard_normal"]] * 3
    expected_bits = np.stack([rng.integers(0, 2, size=(N, L)) for rng in ref])
    assert bits.dtype == np.uint8 and bits.shape == expected_bits.shape
    np.testing.assert_array_equal(bits, expected_bits)
    normal = np.random.Generator.standard_normal
    gain = [normal, normal] if fading == "rayleigh" else [lambda rng, size: rng.random(size) * 2**53]
    draws = [(shape, gain) for shape in rules[0]] + [(shape, [normal, normal]) for shape in rules[1]]
    assert len(variates) == len(draws)
    for i, rng in enumerate(ref):
        for (shape, methods), views in zip(draws, variates):
            expected = [method(rng, size=(n_blocks,) + shape) for method in methods]
            assert len(views) == len(expected), shape
            for g, e in zip(views, expected):
                assert not g.flags.owndata
                np.testing.assert_array_equal(g[i], e)
    for a, b in zip(ours, ref):
        np.testing.assert_array_equal(a.standard_normal(4), b.standard_normal(4))
        np.testing.assert_array_equal(a.random(4), b.random(4))
        # integers keeps an odd count's spare 32-bit half for its next 32-bit draw;
        # draw_sets leaves none, so a reused generator would go on differently there
        assert b.bit_generator.state["has_uint32"] == (N * L) % 2
        assert a.bit_generator.state["has_uint32"] == 0


def test_every_set_makes_two_generator_calls():
    d = build_design("alamouti")
    c = constellation_for(d)
    for scheme in batch.SCHEMES:
        for fading in FADING_MODELS:
            rngs = [CountingGenerator(np.random.default_rng([3, s])) for s in range(40)]
            simulate_packet_set(scheme, d, c, d.M, 10.0, 1.0, fading, "perslot", 128, rngs)
            assert {tuple(rng.looked_up) for rng in rngs} == {("bit_generator", "standard_normal")}


@pytest.mark.parametrize("scheme", batch.SCHEMES)
@pytest.mark.parametrize("code", DESIGN_NAMES)
@pytest.mark.parametrize("fading", FADING_MODELS)
def test_noiseless_sets_draw_the_noisy_stream(scheme, code, fading):
    # a noiseless set draws its noise too and scales it by 0, so it leaves its
    # generator where a noisy set with the same seed does
    d = build_design(code)
    c = constellation_for(d)
    states = []
    for sigma2 in (0.0, 1.0):
        rngs = [np.random.default_rng([7, s]) for s in range(3)]
        simulate_packet_set(scheme, d, c, d.M, 10.0, sigma2, fading, "perslot", 127, rngs)
        states.append([rng.bit_generator.state for rng in rngs])
    assert states[0] == states[1]


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
        results.append(simulate_packet_set(scheme, d, c, 2, 10.0, 1.0,
                                           "rayleigh", "perslot", 200, [rng]))
    np.testing.assert_array_equal(results[0], results[1])


@pytest.mark.parametrize("scheme", ["stssc", "afost", "dstc", "direct"])
@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_packet_set_noiseless_error_free(scheme, name):
    d = build_design(name)
    c = constellation_for(d)
    rng = np.random.default_rng(7)
    errors = simulate_packet_set(scheme, d, c, d.M, 10.0, 0.0, "unit-mag", "perslot", 300, [rng])
    assert errors.tolist() == [0]


@pytest.mark.parametrize("scheme", ["stssc", "afost", "dstc", "direct"])
@pytest.mark.parametrize("fading", ["unit-mag", "rayleigh"])
@pytest.mark.parametrize("sigma2", [1.0, 0.0])
def test_grouped_sets_equal_sum_of_single_sets(scheme, fading, sigma2):
    # 127 QPSK bits pad to 64 symbols and c34 pads those to 22 blocks of 3 slots
    d = build_design("c34")
    c = get_constellation("qpsk")
    seeds = range(40, 45)

    def run(rngs):
        return simulate_packet_set(scheme, d, c, 3, 3.0, sigma2, fading, "perslot", 127, rngs)

    grouped = run([np.random.default_rng(s) for s in seeds])
    singles = np.concatenate([run([np.random.default_rng(s)]) for s in seeds])
    np.testing.assert_array_equal(grouped, singles)
    if sigma2:
        assert len(set(singles.tolist())) > 1


@pytest.mark.parametrize("code, packet_bits", [("alamouti", 3001), ("c34", 5001)])
@pytest.mark.parametrize("fading", ["unit-mag", "rayleigh"])
@pytest.mark.parametrize("sigma2", [1.0, 0.0])
@pytest.mark.parametrize("n_sets", [1, 2])
def test_stssc_tiles_do_not_change_results(tiles, code, packet_bits, fading, sigma2, n_sets):
    # every scheme runs in tiles of tile_blocks blocks, whole sets or block
    # ranges of one longer set.  QPSK sets longer than a 512-block tile:
    # alamouti 3001 bits is 751 blocks, c34 5001 bits pads to 834.  A tile of
    # the whole call is the untiled chain; c34's searches take tiles of at
    # least 2 blocks, their candidate table's floor
    d = build_design(code)
    c = get_constellation("qpsk")
    n_blocks = blocks_per_set(d, c, packet_bits)

    def run(scheme, blocks):
        tile = tiles.force(blocks, scheme, d, c, d.M)
        assert tile == blocks or (scheme in batch.SEARCHES and tile == 2), (scheme, blocks, tile)
        tiles.decided = 0
        rngs = [np.random.default_rng(s) for s in range(60, 60 + n_sets)]
        errors = simulate_packet_set(scheme, d, c, d.M, 3.0, sigma2, fading, "perslot",
                                     packet_bits, rngs)
        expected = (ceil(n_sets / (tile // n_blocks)) if tile >= n_blocks
                    else n_sets * ceil(n_blocks / tile))
        assert tiles.decided == expected, (scheme, blocks)
        return errors

    for scheme in batch.SCHEMES:
        whole = run(scheme, n_sets * n_blocks)
        for blocks in (1, 7, 512):
            np.testing.assert_array_equal(run(scheme, blocks), whole, err_msg=f"{scheme} {blocks}")
        assert (whole.sum() > 0) == (sigma2 > 0), scheme


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


def traced_peak(scheme, code, fading, packet_bits, sets, N=None):
    """Traced numpy peak (bytes) of one call on `sets` packet sets at rho = 10, N = M by default."""
    d = build_design(code)
    c = constellation_for(d)
    rngs = [np.random.default_rng(3 + i) for i in range(sets)]
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        simulate_packet_set(scheme, d, c, N or d.M, 10.0, 1.0, fading, "perslot", packet_bits,
                            rngs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_stssc_set_memory_is_bounded():
    # every scheme on a 100 000-bit set: c34 QPSK is 16 667 blocks, c44 BPSK
    # 25 000; numpy reports its buffers to tracemalloc
    peaks = {key: traced_peak(*key, "unit-mag", 100_000, 1) for key in MEMORY_BOUNDS}
    assert {key: peak for key, peak in peaks.items() if peak >= MEMORY_BOUNDS[key]} == {}


# bounds on the traced numpy peak (bytes) of one call on one alamouti QPSK
# unit-mag set at rho = 10 with many sources: N = 6 searches 4096 candidates
# over a 4096-bit set (1024 blocks), N = 7 16 384 over a 1024-bit set (256
# blocks).  Deciding each set as one tile peaked at 139.5 and 149.6 MB
# (stssc; afost alike); tiles of tile_blocks blocks (35 and 48) sharing one
# outer-product table peak at 6.6 and 33.8 MB
LARGE_N_MEMORY_BOUNDS = {6: 8e6, 7: 38e6}
LARGE_N_BITS = {6: 4096, 7: 1024}


@pytest.mark.parametrize("scheme", batch.SEARCHES)
@pytest.mark.parametrize("N", [6, 7])
def test_many_source_search_memory_is_bounded(monkeypatch, tiles, scheme, N):
    d, c = build_design("alamouti"), get_constellation("qpsk")
    bits = LARGE_N_BITS[N]
    n_blocks = blocks_per_set(d, c, bits)
    built = []
    real = _kernels.candidate_outers
    monkeypatch.setattr(_kernels, "candidate_outers", lambda xc: built.append(xc) or real(xc))
    peak = traced_peak(scheme, "alamouti", "unit-mag", bits, 1, N)
    assert peak < LARGE_N_MEMORY_BOUNDS[N], peak
    tile = batch.tile_blocks(scheme, d, c, N)
    assert tiles.decided == ceil(n_blocks / tile) > 1
    assert len(built) == 1                       # one outer-product table for every tile

    def errors():
        return simulate_packet_set(scheme, d, c, N, 10.0, 1.0, "unit-mag", "perslot", bits,
                                   [np.random.default_rng(3)])

    tiled = errors()
    assert tiles.force(n_blocks, scheme, d, c, N) == n_blocks
    np.testing.assert_array_equal(tiled, errors())           # the set as one tile
    assert tiled.sum() > 0


# bounds on the traced numpy peak (bytes) of one call of 32 128-bit sets,
# 1024 blocks, set when they made a single 1024-block tile whose raw variates
# are freed once its draws are formed (tiles of tile_blocks blocks cut c44's
# calls in two); holding them while the tile decided peaked at 4.20 (afost/c44),
# 1.48 (afost/alamouti), 5.74 (stssc/c44) and 3.31 MB (dstc/c44), and freeing
# them gave 3.35, 1.25, 5.05 and 2.85 MB (dstc 2.52 MB once its destination
# statistic was computed directly).  Deciding afost and dstc blocks-last, with
# the tile's block-first arrays freed once copied and afost's y and F the only
# arrays it holds into its search, gives 2.17, 0.89, 4.79 and 2.03 MB
ONE_TILE_MEMORY_BOUNDS = {
    ("afost", "c44", "rayleigh"): 3.7e6, ("afost", "alamouti", "rayleigh"): 1.35e6,
    ("stssc", "c44", "unit-mag"): 5.4e6, ("dstc", "c44", "rayleigh"): 3.05e6,
}


def test_one_tile_call_frees_its_raw_variates_before_deciding():
    peaks = {key: traced_peak(*key, 128, 32) for key in ONE_TILE_MEMORY_BOUNDS}
    assert {key: peak for key, peak in peaks.items()
            if peak >= ONE_TILE_MEMORY_BOUNDS[key]} == {}


def test_call_memory_does_not_grow_with_its_short_sets(tiles):
    # 128-bit c44 sets are 32 blocks, so a tile holds tile_blocks // 32 of
    # them.  Each tile's sets draw their bits and raw variates just before it
    # is formed and are counted once it decides, so calls of four and sixteen
    # tiles peak as a call of one tile does; drawing the whole call's variates,
    # or holding its symbols and decisions, would grow with its sets
    d = build_design("c44")
    for key in (("afost", "c44", "rayleigh"), ("stssc", "c44", "unit-mag")):
        per_tile = batch.tile_blocks(key[0], d, constellation_for(d), d.M) // 32
        tiles.decided = 0
        one_tile = traced_peak(*key, 128, per_tile)
        for n_tiles in (4, 16):
            peak = traced_peak(*key, 128, n_tiles * per_tile)
            assert peak < 1.1 * one_tile, (key, n_tiles, one_tile, peak)
        assert tiles.decided == 1 + 4 + 16, key


# destination 0's bit errors in each of two 5000-bit sets (seeds 81 and 82) at
# 5 dB, N = M, as the simulator gave them before its tile loop served every
# scheme, in 1024-block tiles
PINNED_RESULTS = {
    ("stssc", "alamouti", "unit-mag"): (1141, 1055),
    ("stssc", "alamouti", "rayleigh"): (1262, 1311),
    ("stssc", "c34", "unit-mag"): (1168, 1174),
    ("stssc", "c34", "rayleigh"): (1423, 1407),
    ("stssc", "c44", "unit-mag"): (853, 858),
    ("stssc", "c44", "rayleigh"): (1105, 1068),
    ("afost", "alamouti", "unit-mag"): (1116, 1048),
    ("afost", "alamouti", "rayleigh"): (1309, 1294),
    ("afost", "c34", "unit-mag"): (1127, 1176),
    ("afost", "c34", "rayleigh"): (1377, 1404),
    ("afost", "c44", "unit-mag"): (841, 878),
    ("afost", "c44", "rayleigh"): (1044, 1064),
    ("dstc", "alamouti", "unit-mag"): (1059, 1046),
    ("dstc", "alamouti", "rayleigh"): (1293, 1365),
    ("dstc", "c34", "unit-mag"): (1386, 1354),
    ("dstc", "c34", "rayleigh"): (1561, 1558),
    ("dstc", "c44", "unit-mag"): (971, 952),
    ("dstc", "c44", "rayleigh"): (1236, 1279),
    ("direct", "alamouti", "unit-mag"): (540, 539),
    ("direct", "alamouti", "rayleigh"): (824, 862),
    ("direct", "c34", "unit-mag"): (765, 769),
    ("direct", "c34", "rayleigh"): (1049, 1041),
    ("direct", "c44", "unit-mag"): (531, 510),
    ("direct", "c44", "rayleigh"): (845, 830),
}


@pytest.mark.parametrize("scheme, code, fading", list(PINNED_RESULTS))
def test_results_are_pinned(scheme, code, fading):
    # a changed decision or random draw changes these counts; the harness's
    # accounting test pins the payload and slot totals
    d = build_design(code)
    errors = simulate_packet_set(scheme, d, constellation_for(d), d.M, 10 ** 0.5, 1.0, fading,
                                 "perslot", 5000, [np.random.default_rng(s) for s in (81, 82)])
    assert errors.tolist() == list(PINNED_RESULTS[scheme, code, fading])


# destination 0's bit errors in each of 32 128-bit sets (seeds 200 to 231) at
# 5 dB, N = M, decided in one call (then one 1024-block tile spanning every
# set), as the simulator gave them before afost and dstc decided blocks-last
PINNED_SHORT_SETS = {
    ("afost", "alamouti", "unit-mag"): (41, 27, 27, 33, 25, 21, 19, 28, 29, 34, 35, 27, 37, 26, 23,
        32, 20, 28, 23, 29, 20, 33, 21, 25, 20, 25, 23, 35, 32, 21, 26, 31),
    ("afost", "alamouti", "rayleigh"): (32, 16, 31, 30, 34, 25, 38, 37, 38, 26, 38, 36, 40, 37, 32,
        29, 36, 33, 33, 33, 34, 40, 30, 33, 33, 35, 30, 33, 39, 31, 42, 34),
    ("afost", "c34", "unit-mag"): (30, 32, 27, 36, 27, 25, 31, 29, 29, 32, 30, 27, 29, 23, 37, 31,
        28, 41, 33, 31, 28, 24, 29, 41, 28, 35, 28, 36, 32, 35, 27, 30),
    ("afost", "c34", "rayleigh"): (37, 37, 36, 33, 36, 43, 37, 43, 35, 33, 38, 34, 45, 41, 33, 31,
        26, 30, 35, 34, 33, 42, 29, 44, 44, 41, 28, 32, 49, 41, 39, 39),
    ("afost", "c44", "unit-mag"): (16, 30, 17, 12, 23, 24, 25, 26, 24, 20, 19, 24, 23, 20, 22, 20,
        17, 17, 23, 27, 18, 28, 21, 22, 24, 18, 29, 23, 19, 12, 16, 22),
    ("afost", "c44", "rayleigh"): (32, 27, 39, 24, 19, 23, 28, 30, 27, 40, 22, 21, 22, 34, 23, 29,
        33, 22, 26, 27, 27, 20, 25, 24, 24, 25, 27, 19, 27, 25, 24, 18),
    ("dstc", "alamouti", "unit-mag"): (36, 26, 20, 28, 25, 26, 23, 16, 26, 26, 21, 23, 19, 25, 22,
        34, 27, 26, 28, 30, 26, 30, 25, 25, 23, 30, 30, 22, 32, 23, 23, 29),
    ("dstc", "alamouti", "rayleigh"): (38, 43, 32, 29, 35, 39, 38, 40, 31, 32, 35, 41, 24, 37, 40,
        35, 45, 31, 34, 36, 34, 32, 28, 34, 31, 39, 38, 33, 34, 40, 39, 35),
    ("dstc", "c34", "unit-mag"): (38, 37, 33, 49, 33, 43, 33, 38, 36, 33, 44, 35, 31, 37, 32, 40,
        32, 35, 36, 40, 32, 36, 32, 41, 48, 36, 26, 33, 39, 31, 38, 38),
    ("dstc", "c34", "rayleigh"): (49, 36, 34, 42, 46, 38, 33, 43, 30, 41, 35, 47, 44, 44, 39, 48,
        40, 37, 35, 33, 38, 32, 40, 40, 44, 40, 40, 39, 44, 50, 33, 44),
    ("dstc", "c44", "unit-mag"): (23, 25, 28, 22, 20, 17, 25, 18, 28, 24, 25, 25, 20, 18, 23, 28,
        19, 18, 39, 30, 17, 21, 24, 21, 22, 21, 25, 24, 29, 23, 20, 26),
    ("dstc", "c44", "rayleigh"): (28, 26, 29, 33, 32, 31, 31, 39, 30, 29, 33, 32, 36, 36, 50, 33,
        39, 33, 33, 33, 32, 36, 29, 34, 30, 31, 26, 27, 37, 31, 21, 30),
    ("direct", "alamouti", "unit-mag"): (12, 12, 10, 13, 17, 10, 18, 15, 8, 13, 13, 14, 18, 14, 15,
        4, 18, 13, 10, 21, 14, 20, 14, 10, 8, 17, 21, 11, 11, 12, 14, 13),
    ("direct", "alamouti", "rayleigh"): (18, 17, 24, 26, 21, 25, 22, 18, 27, 24, 28, 18, 26, 24,
        20, 19, 19, 27, 15, 27, 16, 19, 20, 19, 16, 21, 24, 20, 20, 23, 13, 16),
    ("direct", "c34", "unit-mag"): (20, 18, 21, 22, 17, 23, 23, 15, 23, 20, 24, 16, 16, 18, 28, 15,
        17, 23, 21, 28, 16, 17, 19, 13, 12, 21, 29, 15, 23, 22, 24, 16),
    ("direct", "c34", "rayleigh"): (34, 25, 42, 32, 22, 21, 20, 23, 27, 19, 20, 35, 21, 15, 27, 35,
        23, 31, 25, 26, 32, 22, 25, 18, 27, 24, 27, 27, 26, 22, 31, 30),
    ("direct", "c44", "unit-mag"): (16, 16, 17, 14, 9, 20, 17, 15, 13, 12, 12, 12, 8, 6, 13, 13,
        14, 12, 9, 13, 15, 19, 9, 12, 15, 17, 10, 14, 15, 10, 17, 13),
    ("direct", "c44", "rayleigh"): (23, 21, 25, 16, 25, 24, 10, 20, 17, 15, 26, 18, 20, 23, 14, 33,
        25, 24, 17, 17, 17, 27, 12, 25, 25, 24, 22, 26, 22, 30, 23, 29),
}


@pytest.mark.parametrize("scheme, code, fading", list(PINNED_SHORT_SETS))
def test_short_set_results_are_pinned(scheme, code, fading):
    d = build_design(code)
    rngs = [np.random.default_rng(s) for s in range(200, 232)]
    errors = simulate_packet_set(scheme, d, constellation_for(d), d.M, 10 ** 0.5, 1.0, fading,
                                 "perslot", 128, rngs)
    assert errors.tolist() == list(PINNED_SHORT_SETS[scheme, code, fading])
    assert errors.min() > 0


def test_direct_low_snr_random_guessing():
    # at -30 dB the direct BPSK link is noise-dominated: BER near 0.5
    d = build_design("alamouti")
    c = get_constellation("bpsk")
    rng = np.random.default_rng(99)
    total = err = 0
    for _ in range(50):
        err += simulate_packet_set("direct", d, c, 2, 1e-3, 1.0, "rayleigh",
                                   "perslot", 1000, [rng]).sum()
        total += 1000
    assert err / total == pytest.approx(0.5, abs=0.02)
