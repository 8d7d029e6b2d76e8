"""Vectorized packet-set simulation used by the Monte Carlo harness.

One packet set is N packets (one per source) framed into coherence
blocks; every block gets an independent channel realization.  A call
simulates any number of packet sets, each drawing its source bits and random
variates from its own generator, in tiles of as many blocks as fit TILE_BYTES
of working set (tile_blocks; whole sets, or a block range of a longer set).
A tile's sets draw just before it is formed and are counted once it decides,
so the bits, draws, symbols, gains, noise and decisions exist for one tile
(or longer set) only, and a call's memory does not grow with its sets.  A
set draws in two Generator calls (draw_sets): raw words for its bits and
unit-mag gains, standard normals for its Rayleigh gains and its noise.
Every tile is formed with its blocks on the last axis, and every scheme
computes along them, through the candidate search.  stssc and afost share
the relay gain rule (schemes.af_gains) and the candidate search
(stssc._kernels).  The tests check the baselines against dense per-block
references replayed from the same random stream, and stssc's decisions
against the brute-force oracle (decoder.brute_force_indices).

Every design is a signed permutation (see stssc.designs), so relay
encoding and the matched filter are index scatters and gathers with sign
flips instead of products with the dispersion matrices; they add exact
zeros and multiply by +-1, so the values are those of the dense products.
The stssc chain goes further and skips the scatter and the gather
altogether: each symbol's matched-filter output is formed straight from
the relay observation and the one forwarding-noise sample its slot
carries (relay_statistics).  Every column weight is 1, so all K slots
share one Gram matrix per block.

Each set's bit errors are counted for the designated destination (source
index 0), padding bits excluded; the harness does the bit, packet and slot
accounting.  Decisions stay point indices to the end: stssc and afost take
source 0's digit of the candidate index, dstc and direct decide with
nearest_index, and the bits that differ are those of the decided and sent
indices' XOR (their Gray labels), so no decided point is formed or demapped.
dstc's and direct's chains read source 0's symbols only, so only those are
mapped and formed for them.
"""

from contextlib import nullcontext
from math import ceil, prod, sqrt

import numpy as np

from . import _kernels
from .channel import _complex_noise, _gains, _unit_mag_variates
from .decoder import enumerate_candidates, first_source_index
from .designs import OrthogonalDesign
# demap_hard and modulate are unused here, since bits come from decision
# indices and symbols from point indices; they stay bound because
# perfbench's tracer wraps batch.demap_hard and batch.modulate by name
from .modem import (
    Constellation, _pad_bits, demap_hard, kappa_for, modulate, nearest_index, nearest_points,
    point_index,
)
from .schemes import af_gains

# working-set bytes per tile: simulate_packet_set draws, forms and decides as
# many blocks at a time as fit (tile_blocks; whole sets, or a block range of a
# longer set)
TILE_BYTES = 2 << 20

SLOT_RULES = {
    "stssc": lambda N, M, K, T: K + M * T,
    "afost": lambda N, M, K, T: (1 + M) * K,
    "dstc": lambda N, M, K, T: N * (K + T),
    "direct": lambda N, M, K, T: N * K,
}
SCHEMES = tuple(SLOT_RULES)
SEARCHES = ("stssc", "afost")       # the schemes that decide by candidate search

# the draws after the bits, per-block shapes in draw order: (gains, noise); see draw_sets
DRAW_RULES = {
    "stssc": lambda N, M, K, T: (((N, M), (M,)), ((M, K), (M, T))),
    "afost": lambda N, M, K, T: (((N, M), (M,)), ((M, K), (M, K))),
    "dstc": lambda N, M, K, T: (((M,), (M,)), ((M, K), (T,))),
    "direct": lambda N, M, K, T: (((),), ((K,),)),
}


def blocks_per_set(design: OrthogonalDesign, constellation: Constellation,
                   packet_bits: int) -> int:
    """Coherence blocks a packet set of packet_bits-bit packets occupies."""
    return ceil(packet_bits / (constellation.bits_per_symbol * design.K))


def block_bytes(scheme: str, design: OrthogonalDesign, constellation: Constellation,
                N: int) -> int:
    """A block's share of a tile's working set, in bytes.

    Every formed complex value, the symbols X and each DRAW_RULES draw, counts
    48 B: itself and the decide step's intermediates.  A candidate search
    adds the block's K |Q|^N float64 candidate metrics.
    """
    M, K, T = design.M, design.K, design.T
    values = N * K + sum(prod(shape) for shapes in DRAW_RULES[scheme](N, M, K, T)
                         for shape in shapes)
    metrics = K * constellation.size**N if scheme in SEARCHES else 0
    return 48 * values + 8 * metrics


def tile_blocks(scheme: str, design: OrthogonalDesign, constellation: Constellation,
                N: int) -> int:
    """Blocks per tile: as many as fit TILE_BYTES (block_bytes each), at least one.

    A candidate search's budget grows to the bytes of its (|Q|^N, N, N) complex
    outer-product table (_kernels.candidate_outers): BLAS packs that table
    again on every search, so a tile must hold enough blocks to amortise it.
    """
    budget = TILE_BYTES
    if scheme in SEARCHES:
        budget = max(budget, 16 * N * N * constellation.size**N)
    return max(1, budget // block_bytes(scheme, design, constellation, N))


def set_bit_errors(constellation: Constellation, decided, sent, packet_bits: int) -> np.ndarray:
    """Bit errors per set: decided (S, n) point indices against the sent ones, of packet_bits bits.

    An index is its point's Gray label, so the differing bits are those set in the XOR of
    the indices; padding symbols and the last real symbol's padding (low) bits are skipped.
    """
    bps = constellation.bits_per_symbol
    n_syms = ceil(packet_bits / bps)
    diff = decided[:, :n_syms] ^ sent[:, :n_syms]
    diff[:, -1] &= -1 << (n_syms * bps - packet_bits)
    return np.bitwise_count(diff).sum(axis=1, dtype=np.intp)


def relay_encode(design: OrthogonalDesign, q) -> np.ndarray:
    """Relay codeword columns sum_t (A[t,:,r] q[r, t, ...] + B[t,:,r] q[r, t, ...]*).

    q: (M, K, ...) per-relay symbols, blocks on the trailing axes ->
    (M, T, ...); slots a relay leaves empty are 0.
    """
    z = np.zeros((design.M, design.T) + q.shape[2:], dtype=complex)
    signed = design.sign.T * np.where(design.conjugated.T, q.T.conj(), q.T)     # (..., K, M)
    z[np.arange(design.M)[:, None], design.slot] = signed.T
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
    B = q.shape[-1]
    conj = design.conjugated[:, :, None]
    gq = g[:, None] * q
    np.negative(gq.imag, out=gq.imag, where=conj)                            # g q'
    picked = hRD[:, None] * gq
    picked += design.sign[:, :, None] * np.take(w.reshape(-1, B), design.slot_rows(), axis=0)
    stat = hRD.conj()[:, None] * picked
    np.negative(stat.imag, out=stat.imag, where=conj)
    return stat


def stssc_decode_batch(X, hSR, hRD, n, w, design, candidates_scaled, rho, sigma2):
    """Relay-to-decision chain of a tile of B stssc blocks; returns candidate indices (K, B).

    Blocks last: X (N, K, B) scaled source symbols, hSR (N, M, B), hRD (M, B),
    n (M, K, B) broadcast and w (M, T, B) forwarding noise.  Every operation
    runs along the B blocks, and q, u and the Gram are sums over the sources
    or the relays.  The relay codewords and the destination's observations
    are never formed (see relay_statistics).
    """
    g = af_gains(hSR, rho, sigma2, source_axis=0)                                # (M, B)
    q = sqrt(rho) * _kernels.sum_products(hSR[:, :, None], X[:, None]) + n       # (M, K, B)
    stat = relay_statistics(design, q, w, hRD, g)
    hRS = hSR.transpose(1, 0, 2)                                                 # (M, N, B)
    hRS_conj = hRS.conj()
    coef = g[:, None] * hRS_conj
    u = _kernels.sum_products(stat[:, :, None], coef[:, None])                   # (K, N, B)
    a = hRS * (g**2 * np.abs(hRD) ** 2)[:, None]
    gram = _kernels.sum_products(a[:, :, None], hRS_conj[:, None])               # (N, N, B)
    return _kernels.joint_argmin(u, gram, candidates_scaled, sqrt(rho))


def draw_sets(rules, fading: str, N: int, L: int, n_blocks: int, rngs):
    """Each set's source bits and variates of DRAW_RULES rules over n_blocks blocks, from rngs[i].

    Two Generator calls a set.  bit_generator.random_raw gives ceil(N*L/2) raw
    64-bit words of source bits, then under unit-mag one word per gain value;
    standard_normal gives, under rayleigh, every gain's two parts, then every
    noise's two parts, in rule order.  Returns the (S, N, L) uint8 bits and,
    per draw in rule order, its variates as (S, n_blocks, *shape) arrays:
    a unit-mag gain's channel._unit_mag_variates of its words, any other
    draw's real parts, then its imaginary parts.

    The bits equal rngs[i].integers(0, 2, size=(N, L)) from a fresh generator.
    numpy's integers(0, 2) takes each bit by Lemire's bounded draw from a
    32-bit half of a raw 64-bit word, low half first, and keeps the half's top
    bit; so word w gives bit 31, then bit 63.  Bits 31 and 63 of a
    little-endian word are the top bits of its bytes 3 and 7, so every set's
    bits are shifted out of those bytes at once.  Generator.random takes its
    u from one whole word and standard_normal whole words too, so every
    variate is the one those draws would give after integers.  With N*L
    odd the bits' last word's high half goes unused: integers would leave it
    buffered in the bit generator for its next 32-bit draw, so a generator
    reused for one would continue differently from one that drew with
    integers.  The harness never reuses one.  The gain words are copied out
    and the raw words dropped before the normal fill, so they do not stay
    alive with the set's variates.
    """
    S = len(rngs)
    unit_mag = fading == "unit-mag"
    n_words = (N * L + 1) // 2
    n_gains, n_noise = (n_blocks * sum(map(prod, shapes)) for shapes in rules)
    n_phases = n_gains if unit_mag else 0
    words = np.array([rng.bit_generator.random_raw(n_words + n_phases) for rng in rngs])
    bits = words.astype("<u8", copy=False).view(np.uint8)[:, 3:8 * n_words:4] >> 7
    phases = _unit_mag_variates(words[:, n_words:])
    del words
    normals = np.empty((S, 2 * (n_gains - n_phases + n_noise)))
    for rng, row in zip(rngs, normals):
        rng.standard_normal(out=row)

    def cut(fill, start, shapes, parts):
        for shape in shapes:
            stop = start + parts * n_blocks * prod(shape)
            draw = fill[:, start:stop].reshape((S, parts, n_blocks) + shape)
            yield [draw[:, j] for j in range(parts)]
            start = stop

    gains = cut(phases, 0, rules[0], 1) if unit_mag else cut(normals, 0, rules[0], 2)
    noise = cut(normals, normals.shape[1] - 2 * n_noise, rules[1], 2)
    return bits[:, :N * L].reshape(S, N, L), [*gains, *noise]


def afost_observations(X, hSR, hRD, n, w, rho: float, sigma2: float):
    """afost's observations y (M, K, B) = F x + g hRD n + w and channel F (M, N, B), blocks last.

    X (N, K, B), hSR (N, M, B), hRD (M, B), n (M, K, B) and w (M, K, B), blocks last.
    """
    g = af_gains(hSR, rho, sigma2, source_axis=0)                                   # (M, B)
    q = sqrt(rho) * _kernels.sum_products(hSR[:, :, None], X[:, None]) + n          # (M, K, B)
    y = (g * hRD)[:, None] * q + w
    F = sqrt(rho) * (g * hRD)[:, None] * hSR.transpose(1, 0, 2)
    return y, F


def simulate_packet_set(scheme: str, design: OrthogonalDesign, constellation: Constellation,
                        N: int, rho: float, sigma2: float, fading: str,
                        kappa_mode: str, packet_bits: int, rngs) -> np.ndarray:
    """Simulate one packet set per generator in rngs; returns their (S,) destination-0 bit errors.

    Set i draws from rngs[i] alone, in two Generator calls (draw_sets): its
    bits and its DRAW_RULES gains' and noise's variates over all its blocks,
    noise too at sigma2 = 0.  Every source's bits are drawn, but dstc and
    direct decide source 0 from its symbols alone, so only source 0's are
    mapped and formed there.  A tile is tile_blocks blocks: as many whole
    sets as fit (at least one), or that many blocks of a longer set.  A
    tile's sets draw just before it is formed (a longer set before its first
    tile), their raw variates go before it (its last tile) decides, and their
    errors are counted once it has; only the generators and the (S,) errors
    span the call.  stssc and afost search one candidate table, whose outer
    products are built once per call (_kernels.candidate_table).  Blocks are
    independent, so each set's errors do not depend on which sets share the
    call or on how it is cut into tiles.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    M, K, T = design.M, design.K, design.T
    L = packet_bits
    bps = constellation.bits_per_symbol
    kappa = kappa_for(N, kappa_mode, T)
    n_blocks = blocks_per_set(design, constellation, L)
    n_syms = ceil(L / bps)

    points = kappa * np.append(constellation.points, 0)
    rules = DRAW_RULES[scheme](N, M, K, T)
    n_gains = len(rules[0])
    n_formed = N if scheme in SEARCHES else 1           # dstc's and direct's chains read X[0]

    if scheme in SEARCHES:
        xc = kappa * enumerate_candidates(constellation, N)

    def decide(X, *draws):
        """Source 0's point indices (K, b) for a tile of b blocks: X (n_formed, K, b) and its draws.

        X holds every source's row for stssc and afost, source 0's alone for dstc and direct.
        """
        if scheme in SEARCHES:
            idx = (stssc_decode_batch(X, *draws, design, xc, rho, sigma2) if scheme == "stssc"
                   else _kernels.afost_argmin(*afost_observations(X, *draws, rho, sigma2), xc))
            return first_source_index(constellation, N, idx)
        if scheme == "dstc":
            # destination 0's chain alone: the other sources' phases are time-orthogonal
            hSR0, hRD, n, w = draws
            scale = sqrt(rho / M) * kappa
            # numpy 2.4.6's einsum adds heq's relay terms as (v0 + v2) + (v1 + v3) at M = 4,
            # (v0 + v2) + v1 at M = 3, where np.sum or adds in order differ in about a quarter
            # of rows; a transposed view rounds otherwise too, so it takes a block-first copy
            v = np.abs(scale * hRD.T.copy()) ** 2                                   # (b, M)
            heq = np.einsum("km,bm->bk", design.column_weights(), v)
            q = sqrt(rho) * hSR0[:, None] * X[0] + n                                # (M, K, b)
            rd = nearest_points(constellation, q / (sqrt(rho) * kappa * hSR0[:, None]))
            y = scale * _kernels.sum_products(hRD[:, None], relay_encode(design, rd)) + w
            # relay_statistics' signed gather with heff = scale hRD, summed over the relays
            stat = (scale * hRD).conj()[:, None] * (design.sign[:, :, None] * y[design.slot])
            np.negative(stat.imag, out=stat.imag, where=design.conjugated[:, :, None])
            return nearest_index(constellation, np.sum(stat, axis=0) / heq.T)
        hSD0, w = draws
        y = sqrt(rho) * hSD0 * X[0] + w
        return nearest_index(constellation, y / (sqrt(rho) * kappa * hSD0))

    def formed(variates, blocks, b):
        """A tile's b blocks of one draw's variates, each as a (*shape, b) view."""
        return [v[:, blocks].reshape((b,) + v.shape[2:]).transpose(*range(1, v.ndim - 1), 0)
                for v in variates]

    errors = np.empty(len(rngs), dtype=np.intp)
    tile = tile_blocks(scheme, design, constellation, N)
    per_tile = max(1, tile // n_blocks)                             # whole sets, or one longer set
    with _kernels.candidate_table(xc) if scheme in SEARCHES else nullcontext():
        for s0 in range(0, len(rngs), per_tile):
            sets = rngs[s0:s0 + per_tile]
            k = len(sets)
            bits, variates = draw_sets(rules, fading, N, L, n_blocks, sets)
            idx = point_index(constellation, _pad_bits(bits[:, :n_formed], bps))
            del bits
            # a padding symbol's index is constellation.size, the 0 appended to the points
            sym = np.full((k, n_formed, n_blocks * K), constellation.size, dtype=np.int8)
            sym[..., :n_syms] = idx.reshape(k, n_formed, n_syms)
            del idx
            sent0 = sym[:, 0]
            sym = sym.reshape(k, n_formed, n_blocks, K)
            decided0 = np.empty((k, n_blocks, K), dtype=np.int8)
            for b0 in range(0, n_blocks, tile):
                blocks = slice(b0, b0 + tile)
                X = points.take(sym[:, :, blocks].transpose(1, 3, 0, 2)).reshape(n_formed, K, -1)
                b = X.shape[-1]
                draws = [_gains(fading, formed(v, blocks, b)) for v in variates[:n_gains]]
                draws += [_complex_noise(sigma2, *formed(v, blocks, b)) for v in variates[n_gains:]]
                if blocks.stop >= n_blocks:
                    variates.clear()    # the sets' raw variates go before their last tile decides
                decided0[:, blocks] = decide(X, *draws).T.reshape(k, -1, K)
            errors[s0:s0 + k] = set_bit_errors(constellation, decided0.reshape(k, -1), sent0, L)
    return errors
