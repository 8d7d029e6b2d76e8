"""The superimposed space-time scheme (stssc) as a per-block reference pipeline.

stssc_pipeline maps (SourceBlock, ChannelRealization, rng) to a
TransmissionTrace holding everything the destination observes, plus the
relay quantities kept for test oracles.  The Monte Carlo engine runs every
scheme through stssc.batch; this chain, with stssc.decoder, is the
block-by-block reference that acceptance criterion 2 checks against the
brute-force oracle.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .channel import ChannelRealization, awgn
from .designs import OrthogonalDesign
from .errors import UsageError
from .modem import SourceBlock


@dataclass
class TransmissionTrace:
    scheme: str
    slots_used: int
    gains: np.ndarray | None = None          # (M,) applied relay gains
    qR: np.ndarray | None = None             # (M, K) relay observations
    yRD: np.ndarray | None = None            # (M, T) destination observations, one row per relay


def broadcast_phase(block: SourceBlock, ch: ChannelRealization,
                    rng: np.random.Generator) -> np.ndarray:
    """Relay observations q_r[t] = sqrt(rho) sum_s h_{s,r} X[s,t] + w, shape (M, K)."""
    if block.N != ch.N:
        raise UsageError(f"block has {block.N} sources, channel has {ch.N}")
    clean = sqrt(ch.rho) * (ch.hSR.T @ block.X)                 # (M, K)
    return clean + awgn(clean.shape, ch.sigma2, rng)


def relay_gains(ch: ChannelRealization) -> np.ndarray:
    """g_r = sqrt(rho / (rho * sum_s |h_{s,r}|^2 + sigma^2)) for all relays."""
    denom = ch.rho * (np.abs(ch.hSR) ** 2).sum(0) + ch.sigma2
    return np.sqrt(ch.rho / denom)


def stssc_pipeline(block: SourceBlock, ch: ChannelRealization, design: OrthogonalDesign,
                   rng: np.random.Generator) -> TransmissionTrace:
    """Broadcast, amplify-and-space-time-encode at each relay, forward sequentially.

    Every relay encodes at once; the forwarding noise is drawn one relay at
    a time, in relay order.
    """
    q = broadcast_phase(block, ch, rng)
    g = relay_gains(ch)
    # z[r] = g_r (q_r @ A[:, :, r] + q_r* @ B[:, :, r]), shape (M, T)
    z = g[:, None] * (q[:, None, :] @ design.A.transpose(2, 0, 1)
                      + q.conj()[:, None, :] @ design.B.transpose(2, 0, 1))[:, 0]
    noise = np.array([awgn(design.T, ch.sigma2, rng) for _ in range(design.M)])
    y = ch.hRD[:, None] * z + noise
    return TransmissionTrace(
        scheme="stssc", slots_used=design.K + design.M * design.T,
        gains=g, qR=q, yRD=y,
    )
