"""Cross-checks of the vectorized Monte Carlo engine against the per-block
reference pipelines and decoders."""

from dataclasses import fields

import numpy as np
import pytest

from stssc import _kernels
from stssc.batch import (
    SLOT_RULES, SetResult, relay_matched_filter, simulate_packet_set, stssc_decode_batch,
)
from stssc.channel import draw_channel
from stssc.decoder import afost_ml_decode, enumerate_candidates, joint_ml_decode, matched_filter
from stssc.designs import DESIGN_NAMES, build_design
from stssc.modem import get_constellation
from stssc.schemes import af_ost_pipeline, relay_gains, stssc_pipeline

from conftest import constellation_for, random_block


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_batch_stssc_decisions_match_reference(name):
    d = build_design(name)
    c = constellation_for(d)
    N = d.M
    kappa = 1 / np.sqrt(N)
    rng = np.random.default_rng(19)
    cand = enumerate_candidates(c, N)
    for trial in range(30):
        ch = draw_channel("rayleigh" if trial % 2 else "unit-mag", N, d.M,
                          10.0 ** (trial % 3), rng)
        block = random_block(c, N, d.K, kappa, rng)
        tr = stssc_pipeline(block, ch, d, rng)
        g = relay_gains(ch)
        ref = joint_ml_decode(matched_filter(tr, ch, d, g), c, kappa, ch.rho, N)
        idx = stssc_decode_batch(tr.yRD[None], ch.hSR[None], ch.hRD[None], g[None],
                                 d, kappa * cand, ch.rho)
        np.testing.assert_array_equal(cand[idx[0]].T, ref)


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_relay_matched_filter_equals_dispersion_products(name):
    # gathers with sign flips give the dense dispersion products bit for bit,
    # per relay stream (stssc) and for one stream heard from every relay (dstc)
    d = build_design(name)
    rng = np.random.default_rng(23)
    y = rng.normal(size=(40, d.M, d.T)) + 1j * rng.normal(size=(40, d.M, d.T))
    P, Q = relay_matched_filter(d, y)
    np.testing.assert_array_equal(P, np.einsum("ktr,brt->brk", d.A.conj(), y))
    np.testing.assert_array_equal(Q, np.einsum("ktr,brt->brk", d.B, y.conj()))
    y1 = y[:, 0, :]
    P, Q = relay_matched_filter(d, y1[:, None, :])
    np.testing.assert_array_equal(P, np.einsum("ktr,bt->brk", d.A.conj(), y1))
    np.testing.assert_array_equal(Q, np.einsum("ktr,bt->brk", d.B, y1.conj()))


def test_batch_afost_decisions_match_reference():
    d = build_design("alamouti")
    c = get_constellation("qpsk")
    kappa = 1 / np.sqrt(2)
    rng = np.random.default_rng(29)
    cand = enumerate_candidates(c, 2)
    for trial in range(30):
        ch = draw_channel("rayleigh", 2, 2, 10.0, rng)
        block = random_block(c, 2, d.K, kappa, rng)
        tr = af_ost_pipeline(block, ch, rng)
        g = relay_gains(ch)
        ref = afost_ml_decode(tr, ch, g, c, kappa, ch.rho)
        F = np.sqrt(ch.rho) * (g * ch.hRD)[:, None] * ch.hSR.T
        idx = _kernels.afost_argmin(tr.yRD[None], F[None], kappa * cand)
        np.testing.assert_array_equal(cand[idx[0]].T, ref)


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
