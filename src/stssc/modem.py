"""Constellations, bit/symbol mapping and packet framing into coherence blocks."""

from dataclasses import dataclass
from math import ceil, sqrt

import numpy as np

from .errors import ConfigurationError, ConsistencyError, UsageError

CONSTELLATION_NAMES = ("bpsk", "qpsk")
KAPPA_MODES = ("perslot", "paper")


@dataclass(frozen=True)
class Constellation:
    name: str
    points: np.ndarray          # unit average energy
    bits_per_symbol: int
    real_only: bool

    def __post_init__(self):
        self.points.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.points)


def get_constellation(name: str) -> Constellation:
    if name == "bpsk":
        # bit 0 -> +1, bit 1 -> -1
        return Constellation("bpsk", np.array([1.0 + 0j, -1.0 + 0j]), 1, True)
    if name == "qpsk":
        # Gray labeling: bits (b0, b1) -> ((1-2*b0) + 1j*(1-2*b1)) / sqrt(2)
        pts = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / sqrt(2)
        return Constellation("qpsk", pts, 2, False)
    raise ConfigurationError(f"unknown constellation {name!r}; valid: {', '.join(CONSTELLATION_NAMES)}")


def modulate(c: Constellation, bits) -> np.ndarray:
    """Map bits to unit-average-energy symbols (Gray labeling)."""
    return c.points[point_index(c, bits)]


def point_index(c: Constellation, bits) -> np.ndarray:
    """Point index of each symbol's bits, most significant first; the inverse of label_bits."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size % c.bits_per_symbol:
        raise UsageError(
            f"bit count {bits.size} not divisible by {c.bits_per_symbol}; pad during framing"
        )
    groups = bits.reshape(-1, c.bits_per_symbol)
    idx = groups[:, 0]
    for b in range(1, c.bits_per_symbol):
        idx = (idx << 1) | groups[:, b]
    return idx


def demap_hard(c: Constellation, symbols) -> np.ndarray:
    """Inverse of modulate; input must be exact constellation points."""
    symbols = np.asarray(symbols, dtype=complex).ravel()
    dist = np.abs(symbols[:, None] - c.points[None, :])
    idx = np.argmin(dist, axis=1)
    if np.any(dist[np.arange(len(symbols)), idx] > 1e-9):
        raise ConsistencyError("hard demapper received a non-constellation point")
    return label_bits(c, idx).ravel()


def label_bits(c: Constellation, idx) -> np.ndarray:
    """Gray label bits of point indices, most significant first: (...,) -> (..., bits_per_symbol).

    modulate maps these bits to c.points[idx].
    """
    shifts = np.arange(c.bits_per_symbol - 1, -1, -1)
    return (np.asarray(idx, dtype=np.int64)[..., None] >> shifts) & 1


def nearest_index(c: Constellation, est) -> np.ndarray:
    """Index of the constellation point nearest each estimate; a tie goes to the first such point."""
    return np.argmin(np.abs(est[..., None] - c.points), axis=-1)


def nearest_points(c: Constellation, est) -> np.ndarray:
    """The constellation point nearest each estimate (see nearest_index)."""
    return c.points[nearest_index(c, est)]


@dataclass(frozen=True)
class Packet:
    bits: np.ndarray
    source: int

    def __post_init__(self):
        self.bits.setflags(write=False)


@dataclass(frozen=True)
class SourceBlock:
    """One coherence block of scaled source symbols.

    X = kappa * raw, where raw holds unit-energy constellation points
    (zero in padding positions) and kappa is the transmit scale factor.
    """

    X: np.ndarray       # (N, K) scaled
    raw: np.ndarray     # (N, K) unit-energy points
    kappa: float

    def __post_init__(self):
        self.X.setflags(write=False)
        self.raw.setflags(write=False)

    @property
    def N(self) -> int:
        return self.X.shape[0]


def kappa_for(n_sources: int, kappa_mode: str, T: int) -> float:
    """Transmit scale: 1/sqrt(N) (per-slot aggregate power) or 1/sqrt(T*N) (block-energy)."""
    if kappa_mode == "perslot":
        return 1.0 / sqrt(n_sources)
    if kappa_mode == "paper":
        return 1.0 / sqrt(T * n_sources)
    raise ConfigurationError(f"unknown kappa mode {kappa_mode!r}; valid: {', '.join(KAPPA_MODES)}")


def frame_packets(packets, c: Constellation, K: int, kappa_mode: str = "perslot",
                  T: int | None = None) -> list[SourceBlock]:
    """Frame N equal-length packets into coherence blocks of K symbol slots.

    Produces ceil(L / (bits_per_symbol * K)) blocks; row s of each block holds
    source s's next K scaled symbols; the tail is zero-padded.
    """
    if not packets:
        raise UsageError("need at least one packet")
    lengths = {len(p.bits) for p in packets}
    if len(lengths) != 1:
        raise UsageError("all packets must have the same length")
    L = lengths.pop()
    if L == 0:
        raise UsageError("empty packets cannot be framed")
    N = len(packets)
    if T is None:
        T = K
    kappa = kappa_for(N, kappa_mode, T)

    n_blocks = ceil(L / (c.bits_per_symbol * K))
    bits = _pad_bits(np.array([p.bits for p in packets]), c.bits_per_symbol)
    syms = modulate(c, bits).reshape(N, -1)
    raw = np.zeros((N, n_blocks * K), dtype=complex)
    raw[:, : syms.shape[1]] = syms
    # (n_blocks, N, K): block b holds every source's next K symbols, contiguous
    raw = np.ascontiguousarray(raw.reshape(N, n_blocks, K).transpose(1, 0, 2))
    X = kappa * raw
    return [SourceBlock(X=X[b], raw=raw[b], kappa=kappa) for b in range(n_blocks)]


def _pad_bits(bits: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """Zero-pad the last axis of bits to a whole number of symbols."""
    rem = bits.shape[-1] % bits_per_symbol
    if rem == 0:
        return np.asarray(bits)
    pad = np.zeros(bits.shape[:-1] + (bits_per_symbol - rem,), dtype=np.int64)
    return np.concatenate([bits, pad], axis=-1)


def check_compatible(c: Constellation, design_real_only: bool) -> None:
    """Real-only designs must be paired with real constellations."""
    if design_real_only and not c.real_only:
        raise ConfigurationError(
            f"constellation {c.name!r} is complex but the selected code is real-only"
        )
