"""The per-block reference chain pinned to its earlier, loop-based forms.

stssc_pipeline, brute_force_oracle and frame_packets were rewritten to cut
their fixed per-call cost.  The forms they replaced are copied below as
references.  The rewritten functions must give the same arrays and the same
decisions, and must leave the generator in the same state, so that
acceptance criterion 2 keeps checking the same blocks.
"""

from math import ceil

import numpy as np
import pytest
from conftest import constellation_for, random_block

from stssc.channel import awgn, draw_channel
from stssc.decoder import brute_force_oracle, enumerate_candidates
from stssc.designs import DESIGN_NAMES, build_design
from stssc.modem import Packet, SourceBlock, frame_packets, get_constellation, kappa_for, modulate
from stssc.schemes import TransmissionTrace, stssc_pipeline


def reference_stssc_pipeline(block, ch, design, rng):
    """(qR, gains, yRD): broadcast, then each relay encodes and forwards in turn."""
    clean = np.sqrt(ch.rho) * (ch.hSR.T @ block.X)
    q = clean + awgn(clean.shape, ch.sigma2, rng)
    g = np.sqrt(ch.rho / (ch.rho * np.sum(np.abs(ch.hSR) ** 2, axis=0) + ch.sigma2))
    y = np.zeros((design.M, design.T), dtype=complex)
    for r in range(design.M):
        a, b = design.A[:, :, r], design.B[:, :, r]
        z = g[r] * (q[r] @ a + q[r].conj() @ b)
        y[r] = ch.hRD[r] * z + awgn(z.shape, ch.sigma2, rng)
    return q, g, y


def reference_brute_force_oracle(trace, ch, design, gains, candidates, kappa):
    """Per-slot loop over the dense A/B forward model with full Euclidean metrics."""
    gains = np.asarray(gains, dtype=float)
    C, N = candidates.shape
    y = trace.yRD
    xi = np.sqrt(ch.rho) * kappa * (ch.hSR.T @ candidates.T)
    out = np.zeros((N, design.K), dtype=complex)
    for t in range(design.K):
        a, b = design.A[t], design.B[t]
        model = (ch.hRD * gains)[None, :, None] * (
            a[:, :, None] * xi[None, :, :] + b[:, :, None] * xi.conj()[None, :, :]
        )
        diff = y.T[:, :, None] - model
        metrics = 2.0 * np.sum(np.abs(diff) ** 2, axis=(0, 1))
        out[:, t] = candidates[int(np.argmin(metrics))]
    return out


def reference_frame_packets(packets, c, K, kappa_mode="perslot", T=None):
    """One modulate call per source, then one block at a time."""
    L = len(packets[0].bits)
    N = len(packets)
    kappa = kappa_for(N, kappa_mode, K if T is None else T)
    n_blocks = ceil(L / (c.bits_per_symbol * K))
    raw = np.zeros((N, n_blocks * K), dtype=complex)
    for s, p in enumerate(packets):
        bits = np.asarray(p.bits)
        pad = (-len(bits)) % c.bits_per_symbol
        syms = modulate(c, np.concatenate([bits, np.zeros(pad, dtype=np.int64)]))
        raw[s, : len(syms)] = syms
    blocks = []
    for b in range(n_blocks):
        chunk = raw[:, b * K : (b + 1) * K]
        blocks.append(SourceBlock(X=kappa * chunk, raw=chunk.copy(), kappa=kappa))
    return blocks


@pytest.mark.parametrize("name", DESIGN_NAMES)
@pytest.mark.parametrize("fading", ["unit-mag", "rayleigh"])
def test_stssc_pipeline_matches_reference(name, fading):
    d = build_design(name)
    c = constellation_for(d)
    rng = np.random.default_rng(8)
    for N, sigma2 in [(2, 1.0), (1, 1.0), (d.M, 1.0), (2, 0.0)]:
        for trial in range(20):
            ch = draw_channel(fading, N, d.M, 10.0 ** (trial % 4 - 1), rng, sigma2=sigma2)
            block = random_block(c, N, d.K, 1 / np.sqrt(N), rng)
            seed = int(rng.integers(2**32))
            new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            tr = stssc_pipeline(block, ch, d, new_rng)
            q, g, y = reference_stssc_pipeline(block, ch, d, ref_rng)
            np.testing.assert_array_equal(tr.qR, q)
            np.testing.assert_array_equal(tr.gains, g)
            np.testing.assert_array_equal(tr.yRD, y)
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("name", DESIGN_NAMES)
@pytest.mark.parametrize("fading", ["unit-mag", "rayleigh"])
def test_brute_force_oracle_matches_reference(name, fading):
    # c34's relays each leave one slot empty; observations are either the
    # pipeline's or arbitrary, so every candidate gets a chance to win
    d = build_design(name)
    c = constellation_for(d)
    rng = np.random.default_rng(99)
    for N in (1, 2, d.M):
        cand = enumerate_candidates(c, N)
        kappa = 1 / np.sqrt(N)
        for trial in range(30):
            ch = draw_channel(fading, N, d.M, 10.0 ** (trial % 3), rng)
            g = rng.uniform(0.2, 1.5, size=d.M)
            if trial % 2:
                tr = stssc_pipeline(random_block(c, N, d.K, kappa, rng), ch, d, rng)
            else:
                y = rng.normal(size=(d.M, d.T)) + 1j * rng.normal(size=(d.M, d.T))
                tr = TransmissionTrace(yRD=y)
            np.testing.assert_array_equal(
                brute_force_oracle(tr, ch, d, g, cand, kappa),
                reference_brute_force_oracle(tr, ch, d, g, cand, kappa),
            )


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_brute_force_oracle_ties_match_reference(name):
    # zero gains make every candidate's model zero: all tie, the first wins
    d = build_design(name)
    c = constellation_for(d)
    cand = enumerate_candidates(c, 2)
    rng = np.random.default_rng(4)
    ch = draw_channel("rayleigh", 2, d.M, 10.0, rng)
    tr = TransmissionTrace(yRD=np.ones((d.M, d.T), dtype=complex))
    decided = brute_force_oracle(tr, ch, d, np.zeros(d.M), cand, 0.5)
    np.testing.assert_array_equal(decided, reference_brute_force_oracle(tr, ch, d, np.zeros(d.M),
                                                                        cand, 0.5))
    np.testing.assert_array_equal(decided, np.repeat(cand[0][:, None], d.K, axis=1))


@pytest.mark.parametrize("mod", ["bpsk", "qpsk"])
def test_frame_packets_matches_reference(mod):
    c = get_constellation(mod)
    rng = np.random.default_rng(12)
    for trial in range(40):
        N = 1 + trial % 3
        K = 2 + trial % 3
        L = int(rng.integers(1, 4 * K * c.bits_per_symbol))
        packets = [Packet(bits=rng.integers(0, 2, size=L), source=s) for s in range(N)]
        mode, T = ("paper", K + 1) if trial % 4 == 3 else ("perslot", None)
        blocks = frame_packets(packets, c, K, kappa_mode=mode, T=T)
        expected = reference_frame_packets(packets, c, K, kappa_mode=mode, T=T)
        assert len(blocks) == len(expected)
        for got, want in zip(blocks, expected):
            np.testing.assert_array_equal(got.X, want.X)
            np.testing.assert_array_equal(got.raw, want.raw)
            assert got.kappa == want.kappa
            assert not got.X.flags.writeable and not got.raw.flags.writeable
