import numpy as np
import pytest

from stssc.channel import _draw_gains, _gains, _unit_mag_variates, awgn, draw_channel
from stssc.errors import ConfigurationError, UsageError


def test_unit_mag_gains_have_unit_magnitude():
    rng = np.random.default_rng(0)
    ch = draw_channel("unit-mag", 3, 4, 1.0, rng)
    np.testing.assert_allclose(np.abs(ch.hSR), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(ch.hRD), 1.0, atol=1e-12)
    assert ch.hSR.shape == (3, 4) and ch.hRD.shape == (4,)


def test_unit_mag_gains_equal_complex_exponential_bit_for_bit():
    # np.exp of +0 + j (2 pi 2^-53) k formed in place gives np.exp(2j pi u) exactly,
    # u = k 2^-53 as Generator.random draws it from k's word (_unit_mag_variates),
    # signed zeros included, on fixed draws, the quarter turns and the ends of k's range
    k = np.concatenate([_unit_mag_variates(np.random.default_rng(5).bit_generator.random_raw(100_000)),
                        np.array([0, 1, 1 << 51, 1 << 52, 3 << 51, (1 << 53) - 1], dtype=np.uint64)])
    u = k * 2.0**-53
    np.testing.assert_array_equal(u[:100_000], np.random.default_rng(5).random(100_000))
    got = _gains("unit-mag", [k]).view(np.float64)
    ref = np.exp(2j * np.pi * u).view(np.float64)
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    drawn = _draw_gains("unit-mag", rng, (40, 3))
    u = ref_rng.random((40, 3))
    np.testing.assert_array_equal(drawn, np.exp(2j * np.pi * u))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_rayleigh_moments():
    rng = np.random.default_rng(1)
    h = draw_channel("rayleigh", 1000, 1000, 1.0, rng).hSR.ravel()
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.01)
    assert abs(np.mean(h.real)) < 0.01
    assert abs(np.mean(h.imag)) < 0.01


def test_bad_channel_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        draw_channel("ricean", 2, 2, 1.0, rng)
    with pytest.raises(UsageError):
        draw_channel("rayleigh", 0, 2, 1.0, rng)
    with pytest.raises(UsageError):
        draw_channel("rayleigh", 2, 2, 0.0, rng)


def test_awgn_moments():
    rng = np.random.default_rng(2)
    w = awgn(10**6, 1.0, rng)
    assert np.var(w) == pytest.approx(1.0, abs=0.01)
    assert np.var(w.real) == pytest.approx(0.5, abs=0.01)
    assert np.var(w.imag) == pytest.approx(0.5, abs=0.01)


def test_awgn_edge_cases():
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(awgn(5, 0.0, rng), np.zeros(5, dtype=complex))
    assert awgn(0, 1.0, rng).shape == (0,)
    assert awgn((3, 4), 1.0, rng).shape == (3, 4)
    with pytest.raises(UsageError):
        awgn(5, -1.0, rng)


def test_noiseless_awgn_draws_the_noisy_stream():
    # a noiseless call draws its samples too and scales them to signed zeros,
    # so it leaves its generator where a noisy call does
    states = []
    for sigma2 in (0.0, 1.0):
        rng = np.random.default_rng(3)
        w = awgn((4, 5), sigma2, rng)
        assert w.shape == (4, 5) and np.all((w == 0) == (sigma2 == 0))
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]


def test_channel_arrays_immutable():
    ch = draw_channel("unit-mag", 2, 2, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        ch.hSR[0, 0] = 0
