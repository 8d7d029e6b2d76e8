"""Destination-side decoding of the per-block stssc reference chain.

The superimposed space-time scheme is decoded with the matched-filter
chain: extend each relay observation with its conjugate, correlate with
the per-relay dispersion signatures to get one sufficient statistic per
(source, slot), and jointly search all sources' candidate symbols slot by
slot.  Slots decouple because the shipped designs are orthogonal, so the
search cost is K * |Q|^N rather than |Q|^(N*K).

The joint slot metric is the exact per-slot expansion of the squared
Euclidean distance to the noiseless forward model, less the observation
energy sum_r ||y~_r||^2 that every candidate shares,

    E_t(x) = - 4 sqrt(rho) Re(sum_s u[s,t] x_s*) + 2 rho sum_{s,s'} W[s,s'] x_s x_s'*

where W is the relay-weighted source cross-correlation (Gram) matrix.  A
slot's Gram weights relay r by the energy its dispersion column gives that
slot's symbol; every shipped design is a signed permutation, so that energy
is 1 and all slots share W.  The cross-source Gram term is what makes the
slot search agree with the unsimplified brute-force decoder decision for
decision; a metric that keeps only the per-symbol diagonal does not.

The batched engine (stssc.batch) decodes every scheme for the Monte Carlo
runs; this module holds stssc's per-block matched-filter chain and the
brute-force oracle, the independent check on both, for one block or a stack.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .channel import ChannelRealization
from .designs import OrthogonalDesign
from .errors import ConfigurationError
from .modem import Constellation

MAX_CANDIDATES = 10**6


@dataclass(frozen=True)
class DecoderStatistics:
    """Per-(source, slot) sufficient statistics for one coherence block."""

    u: np.ndarray        # (N, K) complex matched-filter outputs
    gram: np.ndarray     # (N, N) source cross-correlation of every slot, gram[s, s'] ~ h_s h_s'*

    def __post_init__(self):
        self.u.setflags(write=False)
        self.gram.setflags(write=False)


def matched_filter(y, ch: ChannelRealization, design: OrthogonalDesign,
                   gains) -> DecoderStatistics:
    """Sufficient statistics u and the Gram matrix of all slots from the (M, T) observations y."""
    gains = np.asarray(gains, dtype=float)
    # inner[r, t] = signature_{t,r}^H y~_r with signature = [h_rd a_{t,r}; h_rd* b_{t,r}*]:
    # the signed gather conj(h_rd) sign y[r, slot], conjugated where x_t is
    inner = ch.hRD.conj()[:, None] * (design.sign * y[np.arange(design.M)[:, None], design.slot])
    np.negative(inner.imag, out=inner.imag, where=design.conjugated)                # (M, K)
    u = np.einsum("r,sr,rk->sk", gains, ch.hSR.conj(), inner)       # (N, K)

    # gram[s, s'] = sum_r g^2 |h_rd|^2 h_sr h_s'r*
    w_r = gains**2 * np.abs(ch.hRD) ** 2                            # (M,)
    gram = (w_r * ch.hSR) @ ch.hSR.conj().T                         # (N, N)
    return DecoderStatistics(u=u, gram=gram)


def enumerate_candidates(constellation: Constellation, N: int) -> np.ndarray:
    """All candidate source vectors, shape (|Q|^N, N), source-major point-index order.

    The table is read-only and shared: calls with the same points and N
    return the same array.
    """
    check_candidate_count(constellation, N)
    return _candidate_table(np.asarray(constellation.points, dtype=complex).tobytes(), N)


def check_candidate_count(constellation: Constellation, N: int) -> None:
    """A ConfigurationError if the |Q|^N candidates of N sources exceed MAX_CANDIDATES."""
    # |Q| >= 2, so |Q|^N > MAX_CANDIDATES from N = its bit length on: no larger power is formed
    if constellation.size ** min(N, MAX_CANDIDATES.bit_length()) > MAX_CANDIDATES:
        raise ConfigurationError(
            f"candidate space {constellation.size}^{N} too large (more than {MAX_CANDIDATES}); "
            "reduce the number of sources or the constellation order"
        )


def first_source_index(constellation: Constellation, N: int, idx):
    """Point index of source 0's symbol in candidates idx of enumerate_candidates(constellation, N).

    The table is source-major, so source 0's index is the leading base-|Q| digit.
    """
    return idx // constellation.size ** (N - 1)


@lru_cache(maxsize=16)
def _candidate_table(points: bytes, N: int) -> np.ndarray:
    table = np.array(list(itertools.product(np.frombuffer(points, dtype=complex), repeat=N)),
                     dtype=complex)
    table.setflags(write=False)
    return table


def joint_ml_decode_slot(stats: DecoderStatistics, t: int, constellation: Constellation,
                         kappa: float, rho: float, N: int) -> np.ndarray:
    """Jointly decide all sources' slot-t symbols; returns unscaled constellation points.

    Minimizes the slot metric E_t over every candidate vector; ties break
    toward the lowest candidate index (source-major enumeration).
    """
    candidates = enumerate_candidates(constellation, N)
    xc = kappa * candidates                                         # (C, N)
    lin = (xc.conj() @ stats.u[:, t]).real                          # (C,)
    quad = ((xc @ stats.gram) * xc.conj()).sum(1).real
    metrics = 2.0 * rho * quad - 4.0 * sqrt(rho) * lin
    return candidates[metrics.argmin()].copy()


def brute_force_oracle(y, ch: ChannelRealization, design: OrthogonalDesign, gains,
                       candidates: np.ndarray, kappa: float) -> np.ndarray:
    """brute_force_indices of one block's (M, T) observations y, as (N, K) candidate points."""
    return np.asarray(candidates)[brute_force_indices(y, ch.hSR, ch.hRD, gains, design,
                                                      candidates, kappa, ch.rho)].T


def brute_force_indices(y, hSR, hRD, gains, design: OrthogonalDesign, candidates,
                        kappa: float, rho: float) -> np.ndarray:
    """Unsimplified decoder: the candidate index of every slot, shape (..., K).

    y (..., M, T), hSR (..., N, M), hRD and gains (..., M), over any leading
    block axes.  For each slot, places the candidate column in an
    otherwise-zero block, runs it through the full two-hop model built from
    the dense A and B and minimizes sum_r ||y~_r - model~_r||^2.  All slots
    are modelled at once.  No matched-filter shortcut; used as the
    independent check on the fast chains.  Ties go to the lowest index.
    """
    candidates = np.asarray(candidates, dtype=complex)
    if len(candidates) * design.K > MAX_CANDIDATES:
        raise ConfigurationError("candidate enumeration too large for brute-force decoding")
    # xi[..., r, c]: noiseless relay observation of the candidate column
    xi = sqrt(rho) * kappa * (np.swapaxes(hSR, -1, -2) @ candidates.T)[..., None, None, :, :]
    # model of slot t's column (per relay): h_rd g (a_{t,r} xi + b_{t,r} xi*)
    model = (hRD * gains)[..., None, None, :, None] * (
        design.A[..., None] * xi + design.B[..., None] * xi.conj()
    )                                                       # (..., K, T, M, C)
    diff = np.swapaxes(y, -1, -2)[..., None, :, :, None] - model
    # ||y~ - model~||^2 = 2 ||y - model||^2
    metrics = 2.0 * np.sum(np.abs(diff) ** 2, axis=(-3, -2))    # (..., K, C)
    return metrics.argmin(axis=-1)
