"""Destination-side decoding for all schemes.

The superimposed space-time scheme is decoded with the matched-filter
chain: extend each relay observation with its conjugate, correlate with
the per-relay dispersion signatures to get one sufficient statistic per
(source, slot), and jointly search all sources' candidate symbols slot by
slot.  Slots decouple because the shipped designs are orthogonal, so the
search cost is K * |Q|^N rather than |Q|^(N*K).

The joint slot metric is the exact per-slot expansion of the squared
Euclidean distance to the noiseless forward model,

    E_t(x) = sum_r ||y~_r||^2 - 4 sqrt(rho) Re(sum_s u[s,t] x_s*)
             + 2 rho sum_{s,s'} W[t,s,s'] x_s x_s'*

where W[t] is the relay-weighted source cross-correlation (Gram) matrix.
The cross-source Gram term is what makes the slot search agree with the
unsimplified brute-force decoder decision for decision; a metric that
keeps only the per-symbol diagonal does not.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .channel import ChannelRealization
from .designs import OrthogonalDesign
from .errors import ConfigurationError, UsageError
from .modem import Constellation, nearest_points
from .schemes import TransmissionTrace

MAX_CANDIDATES = 10**6


@dataclass(frozen=True)
class DecoderStatistics:
    """Per-(source, slot) sufficient statistics for one coherence block."""

    u: np.ndarray        # (N, K) complex matched-filter outputs
    v: np.ndarray        # (N, K) real per-symbol scalars
    yNormSq: float       # sum_r ||y~_r||^2
    gram: np.ndarray     # (K, N, N) source cross-correlation, gram[t, s, s'] ~ h_s h_s'*

    def __post_init__(self):
        self.u.setflags(write=False)
        self.v.setflags(write=False)
        self.gram.setflags(write=False)


def extend_conjugate(y) -> np.ndarray:
    """y~ = [y, y*]."""
    y = np.asarray(y, dtype=complex)
    return np.concatenate([y, y.conj()])


def matched_filter(trace: TransmissionTrace, ch: ChannelRealization,
                   design: OrthogonalDesign, gains) -> DecoderStatistics:
    """Sufficient statistics u, per-symbol scalars v, and the slot Gram matrices."""
    if trace.scheme != "stssc":
        raise UsageError(f"matched_filter expects an stssc trace, got {trace.scheme!r}")
    gains = np.asarray(gains, dtype=float)
    T = design.T
    y = trace.yRD                                   # (M, T)
    ytil = np.concatenate([y, y.conj()], axis=1)    # (M, 2T)

    # inner[r, t] = signature_{t,r}^H y~_r with signature = [h_rd a_{t,r}; h_rd* b_{t,r}*]
    # P[r, k] = sum_tau conj(A[k, tau, r]) y[r, tau]; Q likewise from B and y*
    P = (y[:, None, :] @ design.A.conj().transpose(2, 1, 0))[:, 0]      # (M, K)
    Q = (y.conj()[:, None, :] @ design.B.transpose(2, 1, 0))[:, 0]
    inner = ch.hRD.conj()[:, None] * P + ch.hRD[:, None] * Q        # (M, K)
    u = np.einsum("r,sr,rk->sk", gains, ch.hSR.conj(), inner)       # (N, K)

    # v[s, t] = sum_r g^2 d_t |h_sr|^2 * T |h_rd|^2
    w_r = gains**2 * np.abs(ch.hRD) ** 2                            # (M,)
    v = ((w_r * T) @ (np.abs(ch.hSR) ** 2).T)[:, None] * design.d[None, :]

    # gram[t, s, s'] = sum_r g^2 |h_rd|^2 c_{t,r} h_sr h_s'r*
    c = design.column_weights()                                     # (K, M)
    gram = (c[:, None, :] * (w_r * ch.hSR)) @ ch.hSR.conj().T      # (K, N, N)

    yNormSq = float((np.abs(ytil) ** 2).sum())
    return DecoderStatistics(u=u, v=v, yNormSq=yNormSq, gram=gram)


def per_symbol_metric(stats: DecoderStatistics, s: int, t: int, x: complex,
                      rho: float) -> float:
    """Single-symbol decision metric ||y~||^2 - 2 sqrt(rho) Re(u x*) + rho v |x|^2."""
    return float(
        stats.yNormSq
        - 2.0 * np.sqrt(rho) * np.real(stats.u[s, t] * np.conj(x))
        + rho * stats.v[s, t] * abs(x) ** 2
    )


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
    quad = ((xc @ stats.gram[t]) * xc.conj()).sum(1).real
    return stats.yNormSq - 4.0 * sqrt(rho) * lin + 2.0 * rho * quad


def joint_ml_decode_slot(stats: DecoderStatistics, t: int, constellation: Constellation,
                         kappa: float, rho: float, N: int) -> np.ndarray:
    """Jointly decide all sources' slot-t symbols; returns unscaled constellation points.

    Ties break toward the lowest candidate index (source-major enumeration).
    """
    candidates = enumerate_candidates(constellation, N)
    metrics = slot_metrics(stats, t, candidates, kappa, rho)
    return candidates[metrics.argmin()].copy()


def joint_ml_decode(stats: DecoderStatistics, constellation: Constellation,
                    kappa: float, rho: float, N: int) -> np.ndarray:
    """Decode every slot of a block; returns the (N, K) decided symbol matrix."""
    K = stats.u.shape[1]
    candidates = enumerate_candidates(constellation, N)
    out = np.zeros((N, K), dtype=complex)
    for t in range(K):
        metrics = slot_metrics(stats, t, candidates, kappa, rho)
        out[:, t] = candidates[int(np.argmin(metrics))]
    return out


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


def afost_ml_decode(trace: TransmissionTrace, ch: ChannelRealization, gains,
                    constellation: Constellation, kappa: float, rho: float) -> np.ndarray:
    """Per-slot joint search over sources for the amplify-and-forward baseline."""
    if trace.scheme != "afost":
        raise UsageError(f"afost_ml_decode expects an afost trace, got {trace.scheme!r}")
    gains = np.asarray(gains, dtype=float)
    N = ch.N
    candidates = enumerate_candidates(constellation, N)
    # F[r, s]: effective source -> destination coefficient through relay r
    F = np.sqrt(rho) * (gains * ch.hRD)[:, None] * ch.hSR.T         # (M, N)
    model = F @ (kappa * candidates).T                              # (M, C)
    K = trace.yRD.shape[1]
    out = np.zeros((N, K), dtype=complex)
    for t in range(K):
        metrics = np.sum(np.abs(trace.yRD[:, t][:, None] - model) ** 2, axis=0)
        out[:, t] = candidates[int(np.argmin(metrics))]
    return out


def dstc_mrc_ml_decode(trace: TransmissionTrace, ch: ChannelRealization,
                       design: OrthogonalDesign, constellation: Constellation,
                       kappa: float) -> np.ndarray:
    """Orthogonal-design linear combining of the relay codewords, then per-symbol decisions.

    Relay decisions are treated as the true symbols; decision errors made
    at the relays propagate to the destination.
    """
    if trace.scheme != "dstc":
        raise UsageError(f"dstc_mrc_ml_decode expects a dstc trace, got {trace.scheme!r}")
    N = trace.yDSTC.shape[0]
    heff = np.sqrt(ch.rho / ch.M) * kappa * ch.hRD                  # (M,)
    c = design.column_weights()                                     # (K, M)
    heq = c @ np.abs(heff) ** 2                                     # (K,)
    out = np.zeros((N, design.K), dtype=complex)
    for s in range(N):
        y = trace.yDSTC[s]                                          # (T,)
        P = np.einsum("ktr,t->rk", design.A.conj(), y)
        Q = np.einsum("ktr,t->rk", design.B, y.conj())
        z = heff.conj() @ P + heff @ Q                              # (K,)
        out[s] = nearest_points(constellation, z / heq)
    return out


def direct_ml_decode(y, h: complex, constellation: Constellation, rho: float,
                     kappa: float) -> np.ndarray:
    """Per-symbol nearest-point decision on the equalized direct observation.

    With h = 0 all metrics tie and the first constellation point wins.
    """
    y = np.asarray(y, dtype=complex)
    if h == 0:
        return np.full(y.shape, constellation.points[0])
    return nearest_points(constellation, y / (np.sqrt(rho) * h * kappa))
