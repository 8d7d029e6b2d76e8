from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stssc.errors import ConfigurationError, ConsistencyError, UsageError
from stssc.modem import (
    Packet,
    check_compatible,
    demap_hard,
    frame_packets,
    get_constellation,
    kappa_for,
    modulate,
    nearest_index,
    nearest_points,
)


def test_bpsk_map():
    c = get_constellation("bpsk")
    np.testing.assert_allclose(modulate(c, [0, 1]), [1, -1])


def test_qpsk_gray_corner():
    c = get_constellation("qpsk")
    np.testing.assert_allclose(modulate(c, [0, 0]), [(1 + 1j) / np.sqrt(2)])


def test_qpsk_unit_energy():
    c = get_constellation("qpsk")
    rng = np.random.default_rng(0)
    syms = modulate(c, rng.integers(0, 2, size=1000))
    assert len(syms) == 500
    np.testing.assert_allclose(np.abs(c.points) ** 2, 1.0, atol=1e-12)
    np.testing.assert_allclose(np.mean(np.abs(syms) ** 2), 1.0, atol=1e-12)


def test_unknown_constellation():
    with pytest.raises(ConfigurationError):
        get_constellation("qam64")


@pytest.mark.parametrize("name", ["bpsk", "qpsk"])
def test_roundtrip_all_points(name):
    c = get_constellation(name)
    bits = demap_hard(c, c.points)
    np.testing.assert_array_equal(modulate(c, bits), c.points)


@pytest.mark.parametrize("name", ["bpsk", "qpsk"])
def test_roundtrip_random_packet(name):
    c = get_constellation(name)
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=1000)
    np.testing.assert_array_equal(demap_hard(c, modulate(c, bits)), bits)


@pytest.mark.parametrize("name", ["bpsk", "qpsk"])
def test_nearest_points_are_the_points_at_nearest_index(name):
    c = get_constellation(name)
    est = np.random.default_rng(4).normal(size=(50, 3)) @ [1, 1j, 0.3]
    np.testing.assert_array_equal(nearest_points(c, est), c.points[nearest_index(c, est)])
    np.testing.assert_array_equal(nearest_index(c, c.points), np.arange(c.size))


# estimate parts that sit on or next to a decision boundary, or are not finite:
# a zero real part is a BPSK midpoint (0, +-j x), a zero part of either kind
# puts a QPSK estimate on an axis, between two points
SPECIAL_PARTS = (0.0, -0.0, 1e-300, -1e-300, 1 / sqrt(2), -1 / sqrt(2), 0.5, -2.0,
                 np.inf, -np.inf, np.nan)


def argmin_reference(c, est):
    return np.argmin(np.abs(est[..., None] - c.points), axis=-1)


def assert_nearest_index_is_argmin(c, est):
    with np.errstate(over="ignore"):                # |est - p| of parts near 1e308
        got, expected = nearest_index(c, est), argmin_reference(c, est)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got, expected)


def complex_array(re, im):
    # parts set one by one: re + 1j * im would turn an infinite part into NaNs
    est = np.empty(re.shape, dtype=complex)
    est.real, est.imag = re, im
    return est


# part magnitudes from far inside to far outside nearest_index's sign margin
# tau (1 + |est|^2), tau = 1e-12: paired with one another, a small part puts
# the estimate next to an axis, and a part past 1e154 overflows |est|^2
MAGNITUDES = tuple(10.0 ** e for e in (-300, -150, -15, -12, -6, 0, 6, 12, 150, 300))


def margin_parts(other):
    """Parts right at the sign margin of an estimate whose other part is other, and one ulp off."""
    part = 1e-12 * (1.0 + other * other)
    part = 1e-12 * (1.0 + (part * part + other * other))            # the margin with part in it
    return (np.nextafter(part, 0), part, np.nextafter(part, np.inf))


@pytest.mark.parametrize("name", ["bpsk", "qpsk"])
def test_nearest_index_equals_argmin_on_every_pair_of_special_parts(name):
    c = get_constellation(name)
    parts = SPECIAL_PARTS + MAGNITUDES + tuple(-m for m in MAGNITUDES)
    re, im = np.meshgrid(parts, parts)
    est = complex_array(re, im)                                     # (b, K) = (31, 31)
    assert_nearest_index_is_argmin(c, est)
    assert_nearest_index_is_argmin(c, np.stack([est.T, -est.T, est.T.conj()]))  # (M, K, b)
    others = np.array([0.0, 0.5, 1.0, 3.0, 1e3, 1e5])
    at_margin = np.array([margin_parts(other) for other in others])     # (6, 3)
    part = np.concatenate([at_margin, -at_margin])                      # (12, 3)
    other = np.broadcast_to(np.concatenate([others, others])[:, None], part.shape)
    est = np.stack([complex_array(part, other), complex_array(other, part)])
    assert_nearest_index_is_argmin(c, np.stack([est, est.conj()]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["bpsk", "qpsk"]), blocks_last=st.booleans(), data=st.data())
def test_nearest_index_equals_argmin(name, blocks_last, data):
    c = get_constellation(name)
    b, K, M = (data.draw(st.integers(1, n)) for n in (64, 4, 4))
    shape = (M, K, b) if blocks_last else (b, K)
    part = st.one_of(st.sampled_from(SPECIAL_PARTS), st.floats(-3.0, 3.0), st.floats())
    est = complex_array(data.draw(arrays(np.float64, shape, elements=part)),
                        data.draw(arrays(np.float64, shape, elements=part)))
    assert_nearest_index_is_argmin(c, est)


def test_demap_rejects_off_constellation_point():
    c = get_constellation("bpsk")
    with pytest.raises(ConsistencyError):
        demap_hard(c, [0.7])


def test_modulate_rejects_ragged_bits():
    c = get_constellation("qpsk")
    with pytest.raises(UsageError):
        modulate(c, [0, 1, 0])


def test_kappa_modes():
    assert kappa_for(2, "perslot", 2) == pytest.approx(1 / np.sqrt(2))
    assert kappa_for(2, "paper", 2) == pytest.approx(0.5)
    assert kappa_for(4, "paper", 4) == pytest.approx(0.25)
    with pytest.raises(ConfigurationError):
        kappa_for(2, "bogus", 2)


def test_frame_small_example():
    c = get_constellation("qpsk")
    packets = [Packet(bits=np.zeros(8, dtype=np.int64), source=s) for s in range(2)]
    blocks = frame_packets(packets, c, K=2)
    assert len(blocks) == 2
    assert all(b.X.shape == (2, 2) for b in blocks)
    assert blocks[0].kappa == pytest.approx(1 / np.sqrt(2))


def test_frame_block_count_formula():
    # L=1000 qpsk bits is 500 symbols; K=3 slots/block -> ceil(1000/6) = 167 blocks,
    # with one all-zero padding symbol in the final block
    c = get_constellation("qpsk")
    packets = [Packet(bits=np.ones(1000, dtype=np.int64), source=s) for s in range(3)]
    blocks = frame_packets(packets, c, K=3)
    assert len(blocks) == 167
    assert blocks[-1].raw[0, -1] == 0
    assert np.all(blocks[-1].raw[:, :2] != 0)


def test_frame_paper_normalization_energy():
    # paper mode: kappa^2 = 1/(T*N); the total block energy of N*K unit symbols is 1
    c = get_constellation("qpsk")
    packets = [Packet(bits=np.zeros(4, dtype=np.int64), source=s) for s in range(2)]
    (block,) = frame_packets(packets, c, K=2, kappa_mode="paper", T=2)
    np.testing.assert_allclose(np.abs(block.X) ** 2, 0.25, atol=1e-14)
    assert np.trace(block.X.conj().T @ block.X).real == pytest.approx(1.0)


def test_frame_rejects_bad_packets():
    c = get_constellation("bpsk")
    with pytest.raises(UsageError):
        frame_packets([], c, K=2)
    with pytest.raises(UsageError):
        frame_packets([Packet(bits=np.zeros(0, dtype=np.int64), source=0)], c, K=2)
    ragged = [
        Packet(bits=np.zeros(4, dtype=np.int64), source=0),
        Packet(bits=np.zeros(6, dtype=np.int64), source=1),
    ]
    with pytest.raises(UsageError):
        frame_packets(ragged, c, K=2)


def test_check_compatible():
    check_compatible(get_constellation("bpsk"), design_real_only=True)
    check_compatible(get_constellation("qpsk"), design_real_only=False)
    with pytest.raises(ConfigurationError):
        check_compatible(get_constellation("qpsk"), design_real_only=True)
