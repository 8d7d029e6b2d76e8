import numpy as np
import pytest
from conftest import make_channel, random_block

from stssc.batch import relay_encode
from stssc.designs import build_design
from stssc.errors import UsageError
from stssc.modem import SourceBlock, get_constellation
from stssc.schemes import broadcast_phase, relay_gains, stssc_pipeline

NO_NOISE = np.random.default_rng(0)     # never consumed in noiseless paths


def unit_block(x, kappa=1.0):
    x = np.asarray(x, dtype=complex)
    return SourceBlock(X=kappa * x, raw=x.copy(), kappa=kappa)


def test_broadcast_cancellation_and_coherent_sum():
    # two sources with opposing gains cancel; aligned gains add coherently
    block = unit_block([[0.5], [0.5]])
    ch = make_channel(hSR=[[1], [-1]], hRD=[1], sigma2=0.0)
    np.testing.assert_allclose(broadcast_phase(block, ch, NO_NOISE), [[0]], atol=1e-14)
    ch = make_channel(hSR=[[1], [1]], hRD=[1], sigma2=0.0)
    np.testing.assert_allclose(broadcast_phase(block, ch, NO_NOISE), [[1.0]], atol=1e-14)


def test_broadcast_scales_with_sqrt_rho():
    block = unit_block([[0.3 + 0.1j, -0.2j]])
    rng = np.random.default_rng(5)
    hSR = (rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2)))
    q1 = broadcast_phase(block, make_channel(hSR, [1, 1], rho=1.0, sigma2=0.0), NO_NOISE)
    q4 = broadcast_phase(block, make_channel(hSR, [1, 1], rho=4.0, sigma2=0.0), NO_NOISE)
    np.testing.assert_allclose(q4, 2 * q1, atol=1e-14)


def test_broadcast_source_count_mismatch():
    block = unit_block([[1.0]])
    ch = make_channel(hSR=[[1], [1]], hRD=[1])
    with pytest.raises(UsageError):
        broadcast_phase(block, ch, NO_NOISE)


def test_relay_gain_frozen_values():
    # rho=1, N=2, unit gains, sigma2=1 -> sqrt(1/3)
    ch = make_channel(hSR=np.ones((2, 1)), hRD=[1], rho=1.0)
    assert relay_gains(ch)[0] == pytest.approx(0.5773502691896258, abs=1e-12)
    # rho=10, N=4, unit gains, sigma2=1 -> sqrt(10/41)
    ch = make_channel(hSR=np.ones((4, 1)), hRD=[1], rho=10.0)
    assert relay_gains(ch)[0] == pytest.approx(np.sqrt(10 / 41), abs=1e-12)
    assert relay_gains(ch)[0] == pytest.approx(0.4938647983247535, abs=1e-9)


def test_relay_gain_zero_channel_limit():
    # a relay no source reaches gets sqrt(rho / sigma2); each relay's gain is its own
    ch = make_channel(hSR=[[0, 1]], hRD=[1, 1], rho=7.0, sigma2=2.0)
    np.testing.assert_allclose(relay_gains(ch), [np.sqrt(7.0 / 2.0), np.sqrt(7.0 / 9.0)])


def test_stssc_forward_phase_rotation():
    # noiseless: relay->destination gains of j rotate every forwarded codeword by 90 degrees
    d = build_design("alamouti")
    block = random_block(get_constellation("qpsk"), 1, d.K, 1.0, np.random.default_rng(3))
    y1 = stssc_pipeline(block, make_channel(np.ones((1, 2)), [1, 1], sigma2=0.0), d, NO_NOISE).yRD
    yj = stssc_pipeline(block, make_channel(np.ones((1, 2)), [1j, 1j], sigma2=0.0), d, NO_NOISE).yRD
    np.testing.assert_allclose(yj, 1j * y1, atol=1e-14)
    assert np.all(np.abs(y1) > 0)


def test_stssc_pipeline_noiseless_unit_channels():
    # with all gains 1 the destination sees g * sqrt(rho) * G(sum_s x_s) per column
    d = build_design("alamouti")
    c = get_constellation("qpsk")
    rng = np.random.default_rng(9)
    block = random_block(c, 2, d.K, kappa=1 / np.sqrt(2), rng=rng)
    ch = make_channel(np.ones((2, 2)), np.ones(2), rho=1.0, sigma2=0.0)
    tr = stssc_pipeline(block, ch, d, rng)
    g = relay_gains(ch)[0]
    xi = block.X.sum(axis=0)            # superimposed symbols per slot
    expected = np.array([
        [g * xi[0], -g * np.conj(xi[1])],       # relay 1's column
        [g * xi[1], g * np.conj(xi[0])],        # relay 2's column
    ])
    np.testing.assert_allclose(tr.yRD, expected, atol=1e-14)


def test_dstc_relay_error_propagates():
    # dstc's relays forward their own decisions with relay_encode: Alamouti's
    # relay 0 sends (x0, -x1*) and relay 1 sends (x1, x0*). One relay deciding
    # one symbol wrong changes that relay's one slot carrying it, by the
    # error or minus its conjugate, and nothing else.
    d = build_design("alamouti")
    pts = get_constellation("qpsk").points
    decided = np.tile(pts[[0, 3]], (2, 1))                    # (M, K): both relays right
    clean = relay_encode(d, decided)
    carried = {(0, 0): (0, 1), (0, 1): (1, -1), (1, 0): (1, 1), (1, 1): (0, 1)}
    for (r, k), (t, sign) in carried.items():
        wrong = decided.copy()
        wrong[r, k] = pts[1]
        err = wrong[r, k] - decided[r, k]
        expected = np.zeros_like(clean)
        expected[r, t] = sign * (err if t == 0 else np.conj(err))
        np.testing.assert_allclose(relay_encode(d, wrong) - clean, expected, atol=1e-15)
