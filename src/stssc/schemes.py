"""The superimposed space-time scheme (stssc) for one block, and the relay gain rule.

stssc_pipeline maps (SourceBlock, ChannelRealization, rng) to the
destination's observations, which stssc.decoder's matched-filter chain
and brute-force oracle decide.  The Monte Carlo engine runs every scheme
through stssc.batch and shares af_gains with this module.
"""

from math import sqrt

import numpy as np

from .channel import ChannelRealization, awgn
from .designs import OrthogonalDesign
from .errors import UsageError
from .modem import SourceBlock


def broadcast_phase(block: SourceBlock, ch: ChannelRealization,
                    rng: np.random.Generator) -> np.ndarray:
    """Relay observations q_r[t] = sqrt(rho) sum_s h_{s,r} X[s,t] + w, shape (M, K)."""
    if block.N != ch.N:
        raise UsageError(f"block has {block.N} sources, channel has {ch.N}")
    clean = sqrt(ch.rho) * (ch.hSR.T @ block.X)                 # (M, K)
    return clean + awgn(clean.shape, ch.sigma2, rng)


def af_gains(hSR, rho: float, sigma2: float, source_axis: int) -> np.ndarray:
    """Amplify-and-forward gains sqrt(rho / (rho sum_s |hSR_s|^2 + sigma^2)), s on source_axis."""
    return np.sqrt(rho / (rho * np.sum(np.abs(hSR) ** 2, axis=source_axis) + sigma2))


def relay_gains(ch: ChannelRealization) -> np.ndarray:
    """The amplify-and-forward gains (af_gains) of all relays of one block, shape (M,)."""
    return af_gains(ch.hSR, ch.rho, ch.sigma2, source_axis=0)


def stssc_pipeline(block: SourceBlock, ch: ChannelRealization, design: OrthogonalDesign,
                   rng: np.random.Generator) -> np.ndarray:
    """Broadcast, amplify-and-space-time-encode at each relay, forward sequentially.

    Returns the destination's observations, one row per relay, shape (M, T).
    Every relay encodes at once with the gains relay_gains(ch); the
    forwarding noise is drawn one relay at a time, in relay order.
    """
    if ch.M != design.M:
        raise UsageError(f"channel has {ch.M} relays, design {design.name!r} has {design.M}")
    q = broadcast_phase(block, ch, rng)
    g = relay_gains(ch)
    # z[r] = g_r (q_r @ A[:, :, r] + q_r* @ B[:, :, r]), shape (M, T)
    z = g[:, None] * (q[:, None, :] @ design.A.transpose(2, 0, 1)
                      + q.conj()[:, None, :] @ design.B.transpose(2, 0, 1))[:, 0]
    noise = np.array([awgn(design.T, ch.sigma2, rng) for _ in range(design.M)])
    return ch.hRD[:, None] * z + noise
