"""Vectorized packet-set simulation used by the Monte Carlo harness.

One packet set is N packets (one per source) framed into coherence
blocks; every block gets an independent channel realization.  A call
simulates several packet sets, each drawing its random variates from its
own generator.  It keeps the raw variates of all their blocks and runs
the arithmetic on batched numpy arrays one tile of blocks at a time, so
the symbols, gains and noise exist only for one tile.  stssc and afost share the relay gain rule
(schemes.af_gains) and the candidate search (stssc._kernels).  The test
suite checks the afost, dstc and direct baselines against dense
per-block references replayed from the same random stream, and stssc's
decisions against the brute-force oracle (decoder.brute_force_indices).

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
from .channel import _complex_noise, _gain_methods, _gains, _set_variates
from .decoder import enumerate_candidates, first_source_index
from .designs import OrthogonalDesign
# demap_hard and modulate are unused here, since bits come from decision
# indices and symbols from point indices; they stay bound because
# perfbench's tracer wraps batch.demap_hard and batch.modulate by name
from .modem import (
    Constellation, _pad_bits, demap_hard, kappa_for, label_bits, modulate, nearest_index,
    nearest_points, point_index,
)
from .schemes import af_gains

# coherence blocks per unit of batched work: the harness simulates packet sets
# in groups of at most this many blocks (at least one set), and
# simulate_packet_set forms symbols, gains and noise and runs every scheme's
# arithmetic in tiles of this many blocks, so that only the raw random draws
# grow with the packet set
BLOCK_BUDGET = 1024

SLOT_RULES = {
    "stssc": lambda N, M, K, T: K + M * T,
    "afost": lambda N, M, K, T: (1 + M) * K,
    "dstc": lambda N, M, K, T: N * (K + T),
    "direct": lambda N, M, K, T: N * K,
}
SCHEMES = tuple(SLOT_RULES)

# the draws after the bits, in draw order: (per-block shape, kind); a gain
# takes channel._gain_methods' variates, noise two normals (none when
# sigma2 = 0)
DRAW_RULES = {
    "stssc": lambda N, M, K, T: (((N, M), "gain"), ((M,), "gain"),
                                 ((M, K), "noise"), ((M, T), "noise")),
    "afost": lambda N, M, K, T: (((N, M), "gain"), ((M,), "gain"),
                                 ((M, K), "noise"), ((M, K), "noise")),
    "dstc": lambda N, M, K, T: (((M,), "gain"), ((M,), "gain"),
                                ((M, K), "noise"), ((T,), "noise")),
    "direct": lambda N, M, K, T: (((), "gain"), ((K,), "noise")),
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


def relay_statistics(design: OrthogonalDesign, q, w, hRD, g):
    """Each relay's matched filter of y = hRD g relay_encode(q) + w, without forming y.

    Blocks lie on the last axis: q (M, K, B) relay observations, w (M, T, B)
    forwarding noise, hRD and g (M, B) -> (M, K, B), symbol t of relay r
    being conj(hRD) sum_tau A*[t,tau,r] y[tau] + hRD sum_tau B[t,tau,r] y*[tau].
    That picks sign (hRD g sign q' + w) from slot[r, t], where q' is q or
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


def source_bits(rngs, N: int, L: int) -> np.ndarray:
    """(len(rngs), N, L) int64 source bits, set i's drawn from rngs[i] alone.

    The bits equal rngs[i].integers(0, 2, size=(N, L)) from a fresh
    generator, and the generator's later draws are the same too.  numpy's
    integers(0, 2) takes each bit by Lemire's bounded draw from a 32-bit
    half of a raw 64-bit word, low half first, and keeps the half's top
    bit; so word w gives bit 31, then bit 63, and ceil(N*L/2) raw words
    give every bit.  With N*L odd the last word's high half goes unused:
    integers would leave it buffered in the bit generator for its next
    32-bit draw, so a generator reused for another call would continue
    differently from one that drew with integers.  The harness never reuses
    one.  Each set's words are shifted straight into the bits, so no array
    of every set's words is kept.
    """
    n = N * L
    bits = np.empty((len(rngs), n), dtype=np.int64)
    out = bits.view(np.uint64)
    for rng, row in zip(rngs, out):
        words = rng.bit_generator.random_raw((n + 1) // 2)
        np.right_shift(words, 31, out=row[0::2])
        np.right_shift(words[:n // 2], 63, out=row[1::2])
    out[:, 0::2] &= 1
    return bits.reshape(len(rngs), N, L)


def simulate_packet_set(scheme: str, design: OrthogonalDesign, constellation: Constellation,
                        N: int, M: int, rho: float, sigma2: float, fading: str,
                        kappa_mode: str, packet_bits: int, rngs,
                        slots_per_block: int | None = None) -> SetResult:
    """Simulate one packet set per generator in rngs and total their destination-0 errors.

    Set i draws from rngs[i] alone: its bits (source_bits), then the
    scheme's DRAW_RULES, each over all its blocks.  Only source 0's bits,
    the symbols' point indices and the raw variates are kept for the whole
    call; the symbols, gains and noise are formed, and the scheme decides,
    one tile of BLOCK_BUDGET blocks at a time.  Every block's arithmetic is
    independent of the other blocks, so each set's errors do not depend on
    which sets share the call or on how the blocks are cut into tiles.

    slots_per_block overrides the scheme's slot accounting rule (throughput
    escape hatch); error counting is unaffected.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    K, T = design.K, design.T
    L = packet_bits
    S = len(rngs)
    bps = constellation.bits_per_symbol
    kappa = kappa_for(N, kappa_mode, T)
    n_blocks = blocks_per_set(design, constellation, L)
    n_syms = ceil(L / bps)
    B = S * n_blocks

    bits = source_bits(rngs, N, L)
    # a padding symbol's index is constellation.size, the 0 appended to the points
    sym = np.full((S, N, n_blocks * K), constellation.size, dtype=np.int8)
    sym[..., :n_syms] = point_index(constellation, _pad_bits(bits, bps)).reshape(S, N, n_syms)
    sym = sym.reshape(S, N, n_blocks, K).transpose(0, 2, 1, 3).reshape(B, N, K)
    points = kappa * np.append(constellation.points, 0)
    bits0 = bits[:, 0].astype(np.int8)
    del bits

    normal = np.random.Generator.standard_normal
    methods = {"gain": _gain_methods(fading), "noise": (normal, normal) if sigma2 else ()}
    variates = []               # per draw: kind, per-block shape, (B, *shape) raw variates
    for shape, kind in DRAW_RULES[scheme](N, M, K, T):
        size = (n_blocks,) + shape
        variates.append((kind, shape, [_set_variates(rngs, m, size).reshape((B,) + shape)
                                       for m in methods[kind]]))

    if scheme in ("stssc", "afost"):
        xc = kappa * enumerate_candidates(constellation, N)

    def decide(X, *draws):
        """Source 0's point indices (b, K) for a tile of b blocks and its draws."""
        if scheme == "stssc":
            idx = stssc_decode_batch(X, *draws, design, xc, rho, sigma2)
            return first_source_index(constellation, N, idx)
        if scheme == "afost":
            hSR, hRD, n, w = draws
            g = af_gains(hSR, rho, sigma2, source_axis=1)                           # (b, M)
            q = sqrt(rho) * np.einsum("bnm,bnk->bmk", hSR, X) + n
            y = (g * hRD)[:, :, None] * q + w
            F = sqrt(rho) * (g * hRD)[:, :, None] * hSR.transpose(0, 2, 1)
            return first_source_index(constellation, N, _kernels.afost_argmin(y, F, xc))
        x0 = X[:, 0, :]                                                             # (b, K)
        if scheme == "dstc":
            # only destination 0's chain is simulated; the other sources' phases
            # are time-orthogonal and enter the slot accounting only
            hSR0, hRD, n, w = draws
            q = sqrt(rho) * hSR0[:, :, None] * x0[:, None, :] + n
            rd = nearest_points(constellation, q / (sqrt(rho) * kappa * hSR0[:, :, None]))
            cols = relay_encode(design, rd)
            scale = sqrt(rho / M) * kappa
            y = scale * np.einsum("br,brt->bt", hRD, cols) + w
            heff = scale * hRD                                                      # (b, M)
            # relay_statistics' signed gather, summed over the relays
            stat = heff.conj()[:, :, None] * (design.sign * y[:, design.slot])      # (b, M, K)
            np.negative(stat.imag, out=stat.imag, where=design.conjugated)
            z = np.sum(stat, axis=1)                                                # (b, K)
            heq = np.einsum("km,bm->bk", design.column_weights(), np.abs(heff) ** 2)
            return nearest_index(constellation, z / heq)
        hSD0, w = draws
        y = sqrt(rho) * hSD0[:, None] * x0 + w
        return nearest_index(constellation, y / (sqrt(rho) * kappa * hSD0[:, None]))

    def formed(kind, shape, parts):
        """One tile's draw from its raw variates parts: gains, noise, or zeros when sigma2 = 0."""
        if kind == "gain":
            return _gains(fading, parts)
        if sigma2:
            return _complex_noise(sigma2, *parts)
        return np.zeros(shape, dtype=complex)

    decided0 = np.empty((B, K), dtype=np.int8)
    for lo in range(0, B, BLOCK_BUDGET):
        tile = slice(lo, lo + BLOCK_BUDGET)
        X = points[sym[tile]]                                                       # (b, N, K)
        draws = [formed(kind, (len(X),) + shape, [part[tile] for part in parts])
                 for kind, shape, parts in variates]
        if tile.stop >= B:
            # the last tile's draws are formed, so the raw variates can go
            # before it decides; a one-tile call then never holds both
            variates.clear()
        decided0[tile] = decide(X, *draws)

    set_errors = set_bit_errors(constellation, decided0.reshape(S, -1), bits0)   # (S,)
    per_block = slots_per_block if slots_per_block is not None else SLOT_RULES[scheme](N, M, K, T)
    return SetResult(
        bit_errors=int(set_errors.sum()), payload_bits=S * L,
        packet_error=int(np.count_nonzero(set_errors)), slots=B * per_block,
    )
