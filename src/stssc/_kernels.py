"""Hot decoding kernels: one candidate search, in numpy.

The candidate search dominates the destination's work: every coherence
block evaluates |Q|^N candidate vectors per slot.  It computes the linear
and quadratic metric terms as real BLAS matmuls over all candidates and
keeps the first minimum, so ties go to the lowest candidate index.

afost_argmin is the same search: the amplify-and-forward distance expands
into the same linear and quadratic terms, which it sums over the relays first.
"""

import numpy as np

# perfbench/run.py's provenance() reads these two names on every run
_HAVE_NUMBA = False


def numba_enabled() -> bool:
    return False


def _real_inner(a, b):
    """Re(sum_l a[..., l] * conj(b[c, l])) for every c, as one real BLAS matmul -> (..., C).

    Re(a conj(b)) = a.real b.real + a.imag b.imag, so the float64 views of
    a and b (real and imaginary parts interleaved) are multiplied directly.
    """
    L = a.shape[-1]
    af = np.ascontiguousarray(a).view(np.float64).reshape(-1, 2 * L)
    bf = np.ascontiguousarray(b).view(np.float64)
    return (af @ bf.T).reshape(a.shape[:-1] + (b.shape[0],))


def _joint_argmin_numpy(u, gram, xc, sqrt_rho):
    """u: (B,N,K), gram: (B,K',N,N), xc: (C,N) kappa-scaled candidates -> (B,K) indices.

    K' is K or 1; a single Gram per block is shared by all K slots.
    """
    B, N, K = u.shape
    rho = sqrt_rho * sqrt_rho
    metrics = _real_inner(u.transpose(0, 2, 1), xc)                 # (B, K, C) linear term
    outers = xc[:, :, None] * xc.conj()[:, None, :]                 # (C, N, N)
    quad = _real_inner(gram.reshape(B, gram.shape[1], N * N),
                       outers.conj().reshape(-1, N * N))            # (B, K', C)
    metrics *= -4.0 * sqrt_rho
    metrics += 2.0 * rho * quad
    return np.argmin(metrics, axis=2).astype(np.int64)


def joint_argmin(u, gram, xc, sqrt_rho):
    """Batched exact-slot-metric candidate argmin; returns (B, K) candidate indices.

    gram is (B, K, N, N) or, when every slot shares one Gram matrix, (B, 1, N, N).
    """
    return _joint_argmin_numpy(u, gram, xc, float(sqrt_rho))


def sum_products(a, b):
    """sum_i a[i] * b[i] over the leading axis, added in order as np.sum(a * b, axis=0) adds."""
    total = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        total += x * y
    return total


def afost_argmin(y, F, xc):
    """Batched amplify-and-forward candidate argmin; returns (B, K) candidate indices.

    y: (B,M,K), F: (B,M,N), xc: (C,N).  Since ||y_t - F x||^2 =
    ||y_t||^2 - 2 Re(x^H F^H y_t) + ||F x||^2, this is joint_argmin's search
    with u = F^H y, Gram = F^T F* and sqrt_rho = 1, summed over the relays along
    the blocks; y and F are best transposed views of blocks-last arrays.
    """
    y, F = y.transpose(1, 2, 0), F.transpose(1, 2, 0)
    u = sum_products(F.conj()[:, :, None], y[:, None])              # (N, K, B)
    gram = sum_products(F[:, :, None], F.conj()[:, None])           # (N, N, B)
    return _joint_argmin_numpy(u.transpose(2, 0, 1), gram.transpose(2, 0, 1)[:, None], xc, 1.0)
