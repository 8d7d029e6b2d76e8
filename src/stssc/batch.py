"""Vectorized packet-set simulation used by the Monte Carlo harness.

One packet set is N packets (one per source) framed into coherence
blocks; every block gets an independent channel realization.  A call
simulates several packet sets, each drawing its random variates from its
own generator, and runs the arithmetic once on all their blocks stacked
as batched numpy arrays.  stssc and afost share the relay gain rule
(schemes.af_gains) and the candidate search (stssc._kernels).  This is
the only implementation of the afost, dstc and direct baselines; the
test suite checks them against dense per-block references replayed from
the same random stream, and checks stssc against the per-block
reference chain in stssc.schemes / stssc.decoder.

Every design is a signed permutation (see stssc.designs), so relay
encoding and the matched filter are index scatters and gathers with sign
flips instead of products with the dispersion matrices; they add exact
zeros and multiply by +-1, so the values are those of the dense products.
The stssc chain goes further and skips the scatter and the gather
altogether: each symbol's matched-filter output is formed straight from
the relay observation and the one forwarding-noise sample its slot
carries (relay_statistics).  Every column weight is 1, so all K slots
share one Gram matrix per block.

Bit and packet error counts are reported for the designated destination
(source index 0); padding bits are excluded.  Decisions stay point
indices to the end: stssc and afost take source 0's digit of the
candidate index, dstc and direct decide with nearest_index, and the bits
are the indices' Gray labels, so no decided point is formed or demapped.
"""

from dataclasses import dataclass
from math import ceil, sqrt

import numpy as np

from . import _kernels
from .channel import _complex_noise, _gains, _set_sampler
from .decoder import enumerate_candidates, first_source_index
from .designs import OrthogonalDesign
# demap_hard is unused here, since bits come from decision indices; it stays
# bound because perfbench's tracer wraps batch.demap_hard by name
from .modem import (
    Constellation, _pad_bits, demap_hard, kappa_for, label_bits, modulate, nearest_index,
    nearest_points,
)
from .schemes import af_gains

# coherence blocks per unit of batched work: the harness simulates packet sets
# in groups of at most this many blocks (at least one set), and the stssc
# chain runs its relay-to-decision arithmetic in tiles of this many blocks, so
# that the arrays past the random draws do not grow with the packet set
BLOCK_BUDGET = 1024

SLOT_RULES = {
    "stssc": lambda N, M, K, T: K + M * T,
    "afost": lambda N, M, K, T: (1 + M) * K,
    "dstc": lambda N, M, K, T: N * (K + T),
    "direct": lambda N, M, K, T: N * K,
}
SCHEMES = tuple(SLOT_RULES)


@dataclass
class SetResult:
    """Totals over the packet sets of one call."""

    bit_errors: int
    payload_bits: int
    packet_error: int       # sets with at least one bit error
    slots: int


def blocks_per_set(design: OrthogonalDesign, constellation: Constellation,
                   packet_bits: int) -> int:
    """Coherence blocks a packet set of packet_bits-bit packets occupies."""
    return ceil(packet_bits / (constellation.bits_per_symbol * design.K))


def set_bit_errors(constellation: Constellation, decided, bits) -> np.ndarray:
    """Bit errors per set: decided (S, n) point indices against the sent bits (S, L).

    The decisions' label bits past the first L (symbol and block padding)
    are not counted.
    """
    rx_bits = label_bits(constellation, decided).reshape(len(bits), -1)[:, :bits.shape[1]]
    return np.count_nonzero(rx_bits != bits, axis=1)


def relay_encode(design: OrthogonalDesign, q) -> np.ndarray:
    """Relay codeword columns sum_t (A[t,:,r] q[..., r, t] + B[t,:,r] q[..., r, t]*).

    q: (..., M, K) per-relay symbols -> (..., M, T); slots a relay leaves empty are 0.
    """
    z = np.zeros(q.shape[:-1] + (design.T,), dtype=complex)
    relays = np.arange(design.M)[:, None]
    z[..., relays, design.slot] = design.sign * np.where(design.conjugated, q.conj(), q)
    return z


def relay_matched_filter(design: OrthogonalDesign, y):
    """P = sum_tau A*[t,tau,r] y[..., r, tau] and Q = sum_tau B[t,tau,r] y*[..., r, tau].

    y: (B, M, T), or (B, 1, T) for one stream carrying every relay -> P, Q (B, M, K).
    """
    picked = design.sign * np.take_along_axis(y, design.slot[None], axis=-1)
    P = np.where(design.conjugated, 0, picked)
    Q = np.where(design.conjugated, picked.conj(), 0)
    return P, Q


def relay_statistics(design: OrthogonalDesign, q, w, hRD, g):
    """conj(hRD) P + hRD Q of the forwarded codewords g relay_encode(q), without forming them.

    Blocks lie on the last axis: q (M, K, B) relay observations, w (M, T, B)
    forwarding noise, hRD and g (M, B) -> (M, K, B).  Relay r's matched
    filter picks sign (hRD g sign q' + w) from slot[r, t], where q' is q or
    q* as conjugated says; sign is +-1, so that equals hRD g q' + sign w[slot]
    rounding for rounding.  A conjugated symbol's statistic hRD (...)* is
    the conjugate of conj(hRD) (...), so one product serves every symbol.
    """
    M, K, B = q.shape
    conj = design.conjugated[:, :, None]
    gq = g[:, None] * q
    np.negative(gq.imag, out=gq.imag, where=conj)                            # g q'
    rows = (np.arange(M)[:, None] * design.T + design.slot).ravel()
    picked = hRD[:, None] * gq
    picked += design.sign[:, :, None] * np.take(w.reshape(-1, B), rows, axis=0).reshape(M, K, B)
    stat = hRD.conj()[:, None] * picked
    np.negative(stat.imag, out=stat.imag, where=conj)
    return stat


def stssc_decode_batch(X, hSR, hRD, n, w, design, candidates_scaled, rho, sigma2):
    """Relay-to-decision chain of a tile of stssc blocks; returns candidate indices (B, K).

    X: (B, N, K) scaled source symbols, hSR: (B, N, M), hRD: (B, M),
    n: (B, M, K) broadcast noise, w: (B, M, T) forwarding noise.  The
    inputs are copied with the blocks moved to the last axis, so every
    operation runs along the B blocks rather than along axes of 2 to 4
    entries, and q, u and the Gram are broadcast sums over the sources or
    the relays.  The relay codewords and the destination's observations
    are never formed (see relay_statistics).
    """
    X, hSR, n, w = (a.transpose(1, 2, 0).copy() for a in (X, hSR, n, w))
    hRD = hRD.T.copy()
    g = af_gains(hSR, rho, sigma2, source_axis=0)                                # (M, B)
    q = sqrt(rho) * np.sum(hSR[:, :, None] * X[:, None], axis=0) + n             # (M, K, B)
    stat = relay_statistics(design, q, w, hRD, g)
    hRS = hSR.transpose(1, 0, 2)                                                 # (M, N, B)
    coef = g[:, None] * hRS.conj()
    u = np.sum(stat[:, :, None] * coef[:, None], axis=0)                         # (K, N, B)
    a = hRS * (g**2 * np.abs(hRD) ** 2)[:, None]
    gram = np.sum(a[:, :, None] * hRS.conj()[:, None], axis=0)                   # (N, N, B)
    return _kernels.joint_argmin(u.transpose(2, 1, 0), gram.transpose(2, 0, 1)[:, None],
                                 candidates_scaled, sqrt(rho))


def simulate_packet_set(scheme: str, design: OrthogonalDesign, constellation: Constellation,
                        N: int, M: int, rho: float, sigma2: float, fading: str,
                        kappa_mode: str, packet_bits: int, rngs,
                        slots_per_block: int | None = None) -> SetResult:
    """Simulate one packet set per generator in rngs and total their destination-0 errors.

    Set i draws from rngs[i] alone, in the order bits, gains, first noise,
    second noise, and every block's arithmetic is independent of the other
    blocks, so each set's errors do not depend on which sets share the call
    or on how the stssc chain is cut into tiles.

    slots_per_block overrides the scheme's slot accounting rule (throughput
    escape hatch); error counting is unaffected.
    """
    K, T = design.K, design.T
    L = packet_bits
    S = len(rngs)
    kappa = kappa_for(N, kappa_mode, T)
    n_blocks = blocks_per_set(design, constellation, L)
    n_syms = ceil(L / constellation.bits_per_symbol)
    B = S * n_blocks

    def gains(shape):
        return _gains(fading, _set_sampler(rngs, (n_blocks,) + shape)).reshape((B,) + shape)

    def noise(shape):
        if sigma2 == 0:
            return np.zeros((B,) + shape, dtype=complex)
        draw = _set_sampler(rngs, (n_blocks,) + shape)
        normal = np.random.Generator.standard_normal
        return _complex_noise(sigma2, draw(normal), draw(normal)).reshape((B,) + shape)

    bits = np.empty((S, N, L), dtype=np.int64)
    for set_bits, rng in zip(bits, rngs):
        set_bits[:] = rng.integers(0, 2, size=(N, L))
    raw = np.zeros((S, N, n_blocks * K), dtype=complex)
    raw[..., :n_syms] = modulate(
        constellation, _pad_bits(bits, constellation.bits_per_symbol)
    ).reshape(S, N, n_syms)
    X = kappa * raw.reshape(S, N, n_blocks, K).transpose(0, 2, 1, 3).reshape(B, N, K)

    if scheme in ("stssc", "afost"):
        hSR = gains((N, M))
        hRD = gains((M,))
        xc = kappa * enumerate_candidates(constellation, N)
        if scheme == "stssc":
            n = noise((M, K))
            w = noise((M, T))       # drawn for the whole call, so each set keeps its order
            idx = np.empty((B, K), dtype=np.int64)
            for lo in range(0, B, BLOCK_BUDGET):
                tile = slice(lo, lo + BLOCK_BUDGET)
                idx[tile] = stssc_decode_batch(X[tile], hSR[tile], hRD[tile], n[tile], w[tile],
                                               design, xc, rho, sigma2)
        else:
            g = af_gains(hSR, rho, sigma2, source_axis=1)                           # (B, M)
            q = sqrt(rho) * np.einsum("bnm,bnk->bmk", hSR, X) + noise((M, K))
            y = (g * hRD)[:, :, None] * q + noise((M, K))
            F = sqrt(rho) * (g * hRD)[:, :, None] * hSR.transpose(0, 2, 1)
            idx = _kernels.afost_argmin(y, F, xc)
        decided0 = first_source_index(constellation, N, idx)         # (B, K)

    elif scheme == "dstc":
        # only destination 0's chain is simulated; the other sources' phases
        # are time-orthogonal and enter the slot accounting only
        hSR0 = gains((M,))
        hRD = gains((M,))
        x0 = X[:, 0, :]                                              # (B, K)
        q = sqrt(rho) * hSR0[:, :, None] * x0[:, None, :] + noise((M, K))
        rd = nearest_points(constellation, q / (sqrt(rho) * kappa * hSR0[:, :, None]))
        cols = relay_encode(design, rd)
        scale = sqrt(rho / M) * kappa
        y = scale * np.einsum("br,brt->bt", hRD, cols) + noise((T,))
        heff = scale * hRD                                           # (B, M)
        P, Q = relay_matched_filter(design, y[:, None, :])
        z = np.sum(heff.conj()[:, :, None] * P + heff[:, :, None] * Q, axis=1)   # (B, K)
        heq = np.einsum("km,bm->bk", design.column_weights(), np.abs(heff) ** 2)
        decided0 = nearest_index(constellation, z / heq)

    elif scheme == "direct":
        hSD0 = gains(())
        x0 = X[:, 0, :]
        y = sqrt(rho) * hSD0[:, None] * x0 + noise((K,))
        decided0 = nearest_index(constellation, y / (sqrt(rho) * kappa * hSD0[:, None]))

    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    set_errors = set_bit_errors(constellation, decided0.reshape(S, -1), bits[:, 0])   # (S,)
    per_block = slots_per_block if slots_per_block is not None else SLOT_RULES[scheme](N, M, K, T)
    return SetResult(
        bit_errors=int(set_errors.sum()), payload_bits=S * L,
        packet_error=int(np.count_nonzero(set_errors)), slots=B * per_block,
    )
