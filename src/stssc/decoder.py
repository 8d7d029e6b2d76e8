"""Destination-side decoding of the per-block stssc reference chain.

The superimposed space-time scheme is decoded with the matched-filter
chain: extend each relay observation with its conjugate, correlate with
the per-relay dispersion signatures to get one sufficient statistic per
(source, slot), and jointly search all sources' candidate symbols slot by
slot.  Slots decouple because the shipped designs are orthogonal, so the
search cost is K * |Q|^N rather than |Q|^(N*K).

The joint slot metric is the exact per-slot expansion of the squared
Euclidean distance to the noiseless forward model,

    E_t(x) = sum_r ||y~_r||^2 - 4 sqrt(rho) Re(sum_s u[s,t] x_s*)
             + 2 rho sum_{s,s'} W[s,s'] x_s x_s'*

where W is the relay-weighted source cross-correlation (Gram) matrix.  A
slot's Gram weights relay r by the energy its dispersion column gives that
slot's symbol; every shipped design is a signed permutation, so that energy
is 1 and all slots share W.  The cross-source Gram term is what makes the
slot search agree with the unsimplified brute-force decoder decision for
decision; a metric that keeps only the per-symbol diagonal does not.

The batched engine (stssc.batch) decodes every scheme for the Monte Carlo
runs; this module is its block-by-block reference for stssc, together with
brute_force_oracle, the independent check on both.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .channel import ChannelRealization
from .designs import OrthogonalDesign
from .errors import ConfigurationError, UsageError
from .modem import Constellation
from .schemes import TransmissionTrace

MAX_CANDIDATES = 10**6


@dataclass(frozen=True)
class DecoderStatistics:
    """Per-(source, slot) sufficient statistics for one coherence block."""

    u: np.ndarray        # (N, K) complex matched-filter outputs
    yNormSq: float       # sum_r ||y~_r||^2
    gram: np.ndarray     # (N, N) source cross-correlation of every slot, gram[s, s'] ~ h_s h_s'*

    def __post_init__(self):
        self.u.setflags(write=False)
        self.gram.setflags(write=False)


def matched_filter(trace: TransmissionTrace, ch: ChannelRealization,
                   design: OrthogonalDesign, gains) -> DecoderStatistics:
    """Sufficient statistics u, the observation energy and the Gram matrix of all slots."""
    if trace.scheme != "stssc":
        raise UsageError(f"matched_filter expects an stssc trace, got {trace.scheme!r}")
    gains = np.asarray(gains, dtype=float)
    y = trace.yRD                                   # (M, T)
    ytil = np.concatenate([y, y.conj()], axis=1)    # (M, 2T)

    # inner[r, t] = signature_{t,r}^H y~_r with signature = [h_rd a_{t,r}; h_rd* b_{t,r}*]
    # P[r, k] = sum_tau conj(A[k, tau, r]) y[r, tau]; Q likewise from B and y*
    P = (y[:, None, :] @ design.A.conj().transpose(2, 1, 0))[:, 0]      # (M, K)
    Q = (y.conj()[:, None, :] @ design.B.transpose(2, 1, 0))[:, 0]
    inner = ch.hRD.conj()[:, None] * P + ch.hRD[:, None] * Q        # (M, K)
    u = np.einsum("r,sr,rk->sk", gains, ch.hSR.conj(), inner)       # (N, K)

    # gram[s, s'] = sum_r g^2 |h_rd|^2 h_sr h_s'r*
    w_r = gains**2 * np.abs(ch.hRD) ** 2                            # (M,)
    gram = (w_r * ch.hSR) @ ch.hSR.conj().T                         # (N, N)

    yNormSq = float((np.abs(ytil) ** 2).sum())
    return DecoderStatistics(u=u, yNormSq=yNormSq, gram=gram)


def enumerate_candidates(constellation: Constellation, N: int) -> np.ndarray:
    """All candidate source vectors, shape (|Q|^N, N), source-major point-index order.

    The table is read-only and shared: calls with the same points and N
    return the same array.
    """
    if constellation.size**N > MAX_CANDIDATES:
        raise ConfigurationError(
            f"candidate space {constellation.size}^{N} exceeds {MAX_CANDIDATES}; "
            "reduce the number of sources or the constellation order"
        )
    return _candidate_table(np.asarray(constellation.points, dtype=complex).tobytes(), N)


@lru_cache(maxsize=16)
def _candidate_table(points: bytes, N: int) -> np.ndarray:
    table = np.array(list(itertools.product(np.frombuffer(points, dtype=complex), repeat=N)),
                     dtype=complex)
    table.setflags(write=False)
    return table


def slot_metrics(stats: DecoderStatistics, t: int, candidates: np.ndarray,
                 kappa: float, rho: float) -> np.ndarray:
    """Exact per-slot distance metric for every candidate vector (constant term included)."""
    xc = kappa * candidates                                         # (C, N)
    lin = (xc.conj() @ stats.u[:, t]).real                          # (C,)
    quad = ((xc @ stats.gram) * xc.conj()).sum(1).real
    return stats.yNormSq - 4.0 * sqrt(rho) * lin + 2.0 * rho * quad


def joint_ml_decode_slot(stats: DecoderStatistics, t: int, constellation: Constellation,
                         kappa: float, rho: float, N: int) -> np.ndarray:
    """Jointly decide all sources' slot-t symbols; returns unscaled constellation points.

    Ties break toward the lowest candidate index (source-major enumeration).
    """
    candidates = enumerate_candidates(constellation, N)
    metrics = slot_metrics(stats, t, candidates, kappa, rho)
    return candidates[metrics.argmin()].copy()


def brute_force_oracle(trace: TransmissionTrace, ch: ChannelRealization,
                       design: OrthogonalDesign, gains, candidates: np.ndarray,
                       kappa: float) -> np.ndarray:
    """Unsimplified decoder: rebuild the noiseless forward model per candidate.

    For each slot, places the candidate column in an otherwise-zero block,
    runs it through the full two-hop model and minimizes
    sum_r ||y~_r - model~_r||^2.  All slots are modelled at once.  No
    matched-filter shortcut; used as the independent check on the fast chain.
    """
    if trace.scheme != "stssc":
        raise UsageError(f"brute_force_oracle expects an stssc trace, got {trace.scheme!r}")
    gains = np.asarray(gains, dtype=float)
    candidates = np.asarray(candidates, dtype=complex)
    C, N = candidates.shape
    if C * design.K > MAX_CANDIDATES:
        raise ConfigurationError("candidate enumeration too large for brute-force decoding")
    y = trace.yRD                                           # (M, T)

    # xi[r, c]: noiseless relay observation of the candidate column
    xi = sqrt(ch.rho) * kappa * (ch.hSR.T @ candidates.T)   # (M, C)
    # model of slot t's column (per relay): h_rd g (a_{t,r} xi + b_{t,r} xi*)
    model = (ch.hRD * gains)[:, None] * (
        design.A[..., None] * xi + design.B[..., None] * xi.conj()
    )                                                       # (K, T, M, C)
    diff = y.T[:, :, None] - model                          # (K, T, M, C)
    # ||y~ - model~||^2 = 2 ||y - model||^2
    metrics = 2.0 * np.sum(np.abs(diff) ** 2, axis=(1, 2))  # (K, C)
    return candidates[metrics.argmin(axis=1)].T
