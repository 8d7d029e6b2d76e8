"""Vectorized packet-set simulation used by the Monte Carlo harness.

One packet set is N packets (one per source) framed into coherence
blocks; every block gets an independent channel realization.  A call
simulates several packet sets, each drawing its random variates from its
own generator, and runs the arithmetic once on all their blocks stacked
as batched numpy arrays, with the candidate search delegated to the
kernels in stssc._kernels.  The per-block reference pipelines in
stssc.schemes / stssc.decoder implement the same math and are used to
cross-check this path in the test suite.

Every design is a signed permutation (see stssc.designs), so relay
encoding and the matched filter are index scatters and gathers with sign
flips instead of products with the dispersion matrices; they add exact
zeros and multiply by +-1, so the values are those of the dense products.
Every column weight is 1, so all K slots share one Gram matrix per block.

Bit and packet error counts are reported for the designated destination
(source index 0); padding bits are excluded.
"""

from dataclasses import dataclass
from math import ceil, sqrt

import numpy as np

from . import _kernels
from .channel import _complex_noise, _gains, _set_sampler
from .decoder import enumerate_candidates
from .designs import OrthogonalDesign
from .modem import Constellation, _pad_bits, demap_hard, kappa_for, modulate, nearest_points

# coherence blocks per unit of batched work: the harness simulates packet sets
# in groups of at most this many blocks (at least one set), and the stssc
# chain runs its relay-to-decision arithmetic in tiles of this many blocks, so
# that the arrays past the random draws do not grow with the packet set
BLOCK_BUDGET = 512

SLOT_RULES = {
    "stssc": lambda N, M, K, T: K + M * T,
    "afost": lambda N, M, K, T: (1 + M) * K,
    "dstc": lambda N, M, K, T: N * (K + T),
    "direct": lambda N, M, K, T: N * K,
}


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


def stssc_decode_batch(y, hSR, hRD, g, design, candidates_scaled, rho):
    """Decode batched observations y (B,M,T); returns candidate indices (B,K)."""
    P, Q = relay_matched_filter(design, y)
    inner = hRD.conj()[:, :, None] * P + hRD[:, :, None] * Q
    u = np.einsum("br,bsr,brk->bsk", g, hSR.conj(), inner)
    w = g**2 * np.abs(hRD) ** 2
    gram = (hSR * w[:, None, :]) @ hSR.conj().transpose(0, 2, 1)   # (B, N, N)
    return _kernels.joint_argmin(u, gram[:, None], candidates_scaled, sqrt(rho))


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
        g = np.sqrt(rho / (rho * np.sum(np.abs(hSR) ** 2, axis=1) + sigma2))   # (B, M)
        q = sqrt(rho) * np.einsum("bnm,bnk->bmk", hSR, X) + noise((M, K))
        cand = enumerate_candidates(constellation, N)
        xc = kappa * cand
        if scheme == "stssc":
            w = noise((M, T))       # drawn for the whole call, so each set keeps its order
            idx = np.empty((B, K), dtype=np.int64)
            for lo in range(0, B, BLOCK_BUDGET):
                tile = slice(lo, lo + BLOCK_BUDGET)
                z = g[tile, :, None] * relay_encode(design, q[tile])
                y = hRD[tile, :, None] * z + w[tile]
                idx[tile] = stssc_decode_batch(y, hSR[tile], hRD[tile], g[tile], design, xc, rho)
        else:
            y = (g * hRD)[:, :, None] * q + noise((M, K))
            F = sqrt(rho) * (g * hRD)[:, :, None] * hSR.transpose(0, 2, 1)
            idx = _kernels.afost_argmin(y, F, xc)
        decided0 = cand[idx, 0]                                      # (B, K)

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
        decided0 = nearest_points(constellation, z / heq)

    elif scheme == "direct":
        hSD0 = gains(())
        x0 = X[:, 0, :]
        y = sqrt(rho) * hSD0[:, None] * x0 + noise((K,))
        decided0 = nearest_points(constellation, y / (sqrt(rho) * kappa * hSD0[:, None]))

    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    rx_bits = demap_hard(constellation, decided0.reshape(S, -1)[:, :n_syms]).reshape(S, -1)[:, :L]
    set_errors = np.count_nonzero(rx_bits != bits[:, 0], axis=1)        # (S,)
    per_block = slots_per_block if slots_per_block is not None else SLOT_RULES[scheme](N, M, K, T)
    return SetResult(
        bit_errors=int(set_errors.sum()), payload_bits=S * L,
        packet_error=int(np.count_nonzero(set_errors)), slots=B * per_block,
    )
