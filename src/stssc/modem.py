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
    """Point index of each symbol's bits, most significant first; the inverse of label_bits.

    uint8 bits give uint8 indices, any other bits int64 ones.
    """
    bits = np.asarray(bits)
    if bits.dtype != np.uint8:
        bits = bits.astype(np.int64, copy=False)
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
    """Index of the constellation point nearest each estimate; a tie goes to the first such point.

    The index is argmin's first minimum over the distances |est - p_j| numpy
    computes: only a strictly smaller one moves it, and an estimate whose
    distances are all NaN or all inf keeps index 0.  c must hold
    get_constellation's BPSK or QPSK points (another layout would be decided
    wrongly): they are the signs of their parts, so an estimate is decided
    from the signs of its real part (bit 1 of a QPSK index) and imaginary part
    (bit 0), unless a part the constellation decides on has
    |part| <= tau (1 + |est|^2), tau = 1e-12, or est is not finite; those go
    through the distances.

    The margin: |est - p| is a libm hypot (within 1 ulp) of two rounded
    differences, so within 3 eps (eps = 2^-53) of the true distance d.  Points
    that differ in a part differ in it by 2a (a = 1, or fl(1/sqrt 2) ~ 0.707),
    so the nearer one's squared distance is smaller by at least 4 a |part|,
    its distance by 4 a |part| / (d_j + d_k), with (d_j + d_k)^2
    <= 2 (d_j^2 + d_k^2) <= 8 (1 + eps) (1 + |est|^2).  The rounded distances
    keep that order while 4 a |part| > 3 eps (d_j + d_k)^2, which holds once
    |part| > 9 eps (1 + |est|^2) = 1e-15 (1 + |est|^2); tau is a thousand
    times that, so the rounding of the margin itself does not matter.  Once
    |est|^2 overflows, the margin is inf and the distances decide.
    """
    est = np.asarray(est)
    re, im = est.real, est.imag
    with np.errstate(over="ignore", invalid="ignore"):
        margin = 1e-12 * (1.0 + (re * re + im * im))
        unsure = ~(np.abs(re) > margin)                 # NaN and inf parts too
        idx = np.less(re, 0).astype(np.intp)
        if not c.real_only:
            unsure |= ~(np.abs(im) > margin)
            idx <<= 1
            idx += im < 0
    if unsure.any():
        idx[unsure] = _nearest_by_distance(c, est[unsure])
    return idx


def _nearest_by_distance(c: Constellation, est) -> np.ndarray:
    """nearest_index, point by point: argmin's first minimum of the distances |est - p_j|."""
    best = np.abs(est - c.points[0])
    idx = np.zeros(best.shape, dtype=np.intp)
    for j in range(1, c.size):
        dist = np.abs(est - c.points[j])
        np.putmask(idx, dist < best, j)
        np.minimum(best, dist, out=best)
    return idx


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
    pad = np.zeros(bits.shape[:-1] + (bits_per_symbol - rem,), dtype=bits.dtype)
    return np.concatenate([bits, pad], axis=-1)


def check_compatible(c: Constellation, design_real_only: bool) -> None:
    """Real-only designs must be paired with real constellations."""
    if design_real_only and not c.real_only:
        raise ConfigurationError(
            f"constellation {c.name!r} is complex but the selected code is real-only"
        )
