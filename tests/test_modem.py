import numpy as np
import pytest

from stssc.errors import ConfigurationError, ConsistencyError, UsageError
from stssc.modem import (
    Packet,
    check_compatible,
    demap_hard,
    frame_packets,
    get_constellation,
    kappa_for,
    modulate,
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
