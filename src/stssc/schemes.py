"""The four transmission schemes as per-block pipelines.

Each pipeline maps (SourceBlock, ChannelRealization, rng) to a
TransmissionTrace holding everything the measured destination observes,
plus intermediate relay quantities kept for test oracles.  These are the
reference implementations; the Monte Carlo engine uses the vectorized
equivalents in stssc.batch.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, awgn
from .designs import OrthogonalDesign
from .errors import UsageError
from .modem import Constellation, SourceBlock, nearest_points

SCHEMES = ("stssc", "afost", "dstc", "direct")


@dataclass
class TransmissionTrace:
    scheme: str
    slots_used: int
    gains: np.ndarray | None = None          # (M,) applied relay gains
    qR: np.ndarray | None = None             # (M, K) relay observations
    yRD: np.ndarray | None = None            # (M, T) stssc / (M, K) afost
    yDirect: np.ndarray | None = None        # (N, K) direct observations
    yDSTC: np.ndarray | None = None          # (N, T) combined relay codewords, one row per source
    relay_decisions: np.ndarray | None = None  # (N, M, K) dstc relay symbol decisions (unscaled)


def broadcast_phase(block: SourceBlock, ch: ChannelRealization,
                    rng: np.random.Generator) -> np.ndarray:
    """Relay observations q_r[t] = sqrt(rho) sum_s h_{s,r} X[s,t] + w, shape (M, K)."""
    if block.N != ch.N:
        raise UsageError(f"block has {block.N} sources, channel has {ch.N}")
    clean = np.sqrt(ch.rho) * (ch.hSR.T @ block.X)              # (M, K)
    return clean + awgn(clean.shape, ch.sigma2, rng)


def relay_gain(ch: ChannelRealization, r: int) -> float:
    """Amplify-and-forward power scaling for relay r (1-based)."""
    if not 1 <= r <= ch.M:
        raise UsageError(f"relay index {r} out of range 1..{ch.M}")
    return float(relay_gains(ch)[r - 1])


def relay_gains(ch: ChannelRealization) -> np.ndarray:
    """g_r = sqrt(rho / (rho * sum_s |h_{s,r}|^2 + sigma^2)) for all relays."""
    denom = ch.rho * np.sum(np.abs(ch.hSR) ** 2, axis=0) + ch.sigma2
    return np.sqrt(ch.rho / denom)


def stssc_relay_encode(q_r: np.ndarray, design: OrthogonalDesign, r: int,
                       g_r: float) -> np.ndarray:
    """Relay r's forwarded codeword column z_r = g_r sum_t (a_t q[t] + b_t q[t]*), shape (T,)."""
    q_r = np.asarray(q_r, dtype=complex)
    if q_r.shape != (design.K,):
        raise UsageError(f"relay observation must have length {design.K}, got {q_r.shape}")
    if not 1 <= r <= design.M:
        raise UsageError(f"relay index {r} out of range 1..{design.M}")
    a = design.A[:, :, r - 1]       # (K, T)
    b = design.B[:, :, r - 1]
    return g_r * (q_r @ a + q_r.conj() @ b)


def stssc_forward(z_r: np.ndarray, ch: ChannelRealization, r: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Destination observation for relay r's phase: h_{r,d} z_r + noise."""
    z_r = np.asarray(z_r, dtype=complex)
    return ch.hRD[r - 1] * z_r + awgn(z_r.shape, ch.sigma2, rng)


def stssc_pipeline(block: SourceBlock, ch: ChannelRealization, design: OrthogonalDesign,
                   rng: np.random.Generator) -> TransmissionTrace:
    """Broadcast, amplify-and-space-time-encode at each relay, forward sequentially."""
    q = broadcast_phase(block, ch, rng)
    g = relay_gains(ch)
    y = np.zeros((design.M, design.T), dtype=complex)
    for r in range(1, design.M + 1):
        z = stssc_relay_encode(q[r - 1], design, r, g[r - 1])
        y[r - 1] = stssc_forward(z, ch, r, rng)
    return TransmissionTrace(
        scheme="stssc", slots_used=design.K + design.M * design.T,
        gains=g, qR=q, yRD=y,
    )


def af_ost_pipeline(block: SourceBlock, ch: ChannelRealization,
                    rng: np.random.Generator) -> TransmissionTrace:
    """Broadcast, then each relay forwards a scaled copy of its observation."""
    q = broadcast_phase(block, ch, rng)
    g = relay_gains(ch)
    K = block.K
    M = ch.M
    y = ch.hRD[:, None] * (g[:, None] * q) + awgn((M, K), ch.sigma2, rng)
    return TransmissionTrace(
        scheme="afost", slots_used=(1 + M) * K,
        gains=g, qR=q, yRD=y,
    )


def dstc_pipeline(block: SourceBlock, ch: ChannelRealization, design: OrthogonalDesign,
                  constellation: Constellation, rng: np.random.Generator) -> TransmissionTrace:
    """Decode-and-forward with a distributed space-time code.

    Sources transmit one at a time; every relay demodulates each symbol
    independently (nearest point), re-modulates, and all relays then
    transmit the design simultaneously, relay r sending column r scaled
    by sqrt(rho/M).  Relay decision errors propagate.
    """
    N, K, M, T = block.N, block.K, ch.M, design.T
    rd = np.zeros((N, M, K), dtype=complex)
    y = np.zeros((N, T), dtype=complex)
    scale = np.sqrt(ch.rho / M) * block.kappa
    for s in range(N):
        # source s broadcast phase, K slots
        q_s = np.sqrt(ch.rho) * ch.hSR[s][:, None] * block.X[s][None, :] + awgn((M, K), ch.sigma2, rng)
        # per-symbol nearest-point relay demodulation (single source on the air)
        est = q_s / (np.sqrt(ch.rho) * block.kappa * ch.hSR[s][:, None])
        rd[s] = nearest_points(constellation, est)
        # simultaneous forwarding: relay r transmits column r of G(decisions_r)
        cols = np.einsum("ktr,rk->rt", design.A, rd[s]) + np.einsum("ktr,rk->rt", design.B, rd[s].conj())
        y[s] = scale * (ch.hRD @ cols) + awgn(T, ch.sigma2, rng)
    return TransmissionTrace(
        scheme="dstc", slots_used=N * (K + T),
        yDSTC=y, relay_decisions=rd,
    )


def direct_pipeline(block: SourceBlock, ch: ChannelRealization,
                    rng: np.random.Generator) -> TransmissionTrace:
    """Point-to-point reference: each source transmits to its destination in turn."""
    y = np.sqrt(ch.rho) * ch.hSD[:, None] * block.X + awgn((block.N, block.K), ch.sigma2, rng)
    return TransmissionTrace(scheme="direct", slots_used=block.N * block.K, yDirect=y)
