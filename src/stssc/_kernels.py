"""Hot decoding kernels: one candidate search, in numpy.

The candidate search dominates the destination's work: every coherence
block evaluates |Q|^N candidate vectors per slot.  It computes the linear
and quadratic metric terms as real BLAS matmuls over all candidates and
keeps the first minimum, so ties go to the lowest candidate index.  Its
operands keep the blocks on the last axis, as the batch forms them.

afost_argmin is the same search: the amplify-and-forward distance expands
into the same linear and quadratic terms, which it sums over the relays first.
The quadratic term is searched against a (C, N*N) table of the candidates'
outer products; inside a candidate_table block, every search over that
block's candidates shares one table instead of building its own.
"""

import contextvars
from contextlib import contextmanager

import numpy as np

# perfbench/run.py's provenance() reads these two names on every run
_HAVE_NUMBA = False


def numba_enabled() -> bool:
    return False


def _real_inner(a, b):
    """Re(sum_l a[..., l] * conj(b[c, l])) for every c, as one real BLAS matmul -> (..., C).

    Re(a conj(b)) = a.real b.real + a.imag b.imag, so the float64 views of
    a and b (real and imaginary parts interleaved) are multiplied directly, b
    as the matmul's columns by a transposed view: a contiguous transposed copy
    rounds some small tiles' terms otherwise, and b as rows breaks exact ties otherwise.
    """
    L = a.shape[-1]
    af = np.ascontiguousarray(a).view(np.float64).reshape(-1, 2 * L)
    bf = np.ascontiguousarray(b).view(np.float64)
    return (af @ bf.T).reshape(a.shape[:-1] + (b.shape[0],))


def candidate_outers(xc):
    """conj(x x^H) of every candidate x, flattened: (C, N) -> (C, N*N)."""
    outers = xc[:, :, None] * xc.conj()[:, None, :]                 # (C, N, N)
    return np.conjugate(outers, out=outers).reshape(len(xc), -1)


# (xc, candidate_outers(xc)) of the innermost candidate_table block, per thread
_table = contextvars.ContextVar("candidate_table", default=(None, None))


@contextmanager
def candidate_table(xc):
    """Build xc's outer-product table once for every search over xc inside the block.

    xc must not change inside the block; searches over other arrays build their own.
    """
    token = _table.set((xc, candidate_outers(xc)))
    try:
        yield
    finally:
        _table.reset(token)


def _search(u, gram, xc, sqrt_rho):
    """Each slot's and block's first least-metric candidate: u (K, N, B) -> (K, B) indices.

    gram is (N, N, B), one per block for all its slots, or (K, N, N, B), one
    per slot.  The linear term's BLAS rows are (K B, 2N), slot-major.
    """
    N, B = u.shape[1:]
    metrics = _real_inner(u.swapaxes(1, 2), xc)                     # (K, B, C) linear term
    held, outers = _table.get()
    if held is not xc:
        outers = candidate_outers(xc)
    gram = gram.reshape(gram.shape[:-3] + (N * N, B))
    quad = _real_inner(gram.swapaxes(-1, -2), outers)               # (B, C) or (K, B, C)
    metrics *= -4.0 * sqrt_rho
    quad *= 2.0 * (sqrt_rho * sqrt_rho)
    metrics += quad
    return np.argmin(metrics, axis=-1)


def _joint_argmin_numpy(u, gram, xc, sqrt_rho):
    """_search of block-first operands: u (B, N, K), gram (B, K', N, N), K' = K or 1 -> (B, K)."""
    return _search(u.T, np.moveaxis(gram, 0, -1), xc, sqrt_rho).T


def joint_argmin(u, gram, xc, sqrt_rho):
    """Batched exact-slot-metric candidate argmin of blocks-last operands: _search."""
    return _search(u, gram, xc, float(sqrt_rho))


def sum_products(a, b):
    """sum_i a[i] * b[i] over the leading axis, added in order as np.sum(a * b, axis=0) adds."""
    total = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        total += x * y
    return total


def afost_argmin(y, F, xc):
    """Batched amplify-and-forward candidate argmin, blocks last; returns (K, B) candidate indices.

    y: (M, K, B), F: (M, N, B), xc: (C, N).  Since ||y_t - F x||^2 =
    ||y_t||^2 - 2 Re(x^H F^H y_t) + ||F x||^2, this is joint_argmin's search
    with u = F^H y, Gram = F^T F* and sqrt_rho = 1, summed over the relays
    along the blocks.
    """
    F_conj = F.conj()
    u = sum_products(F_conj[:, None], y[:, :, None])                # (K, N, B)
    gram = sum_products(F[:, :, None], F_conj[:, None])             # (N, N, B)
    return _search(u, gram, xc, 1.0)
