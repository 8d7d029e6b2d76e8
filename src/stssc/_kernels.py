"""Hot decoding kernels: optional numba-compiled loops with a pure-numpy fallback.

The candidate search dominates simulation runtime (every coherence block
evaluates |Q|^N candidate vectors per slot).  The numpy path computes the
linear and quadratic metric terms as real BLAS matmuls over all candidates
and picks the argmin.  numba is optional (the `fast` extra,
`pip install stssc[fast]`); it compiles the plain-Python loops below.  When
numba imports cleanly its path is used by default; set STSSC_NO_NUMBA=1 to
force the numpy path.  Both paths scan candidates in order and keep the
first minimum, so tie-breaking is identical.
"""

import os

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # numba is optional: fall back to the numpy path
    _HAVE_NUMBA = False


def numba_enabled() -> bool:
    if os.environ.get("STSSC_NO_NUMBA", "").strip().lower() in ("1", "true", "yes"):
        return False
    return _HAVE_NUMBA


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


def _afost_argmin_numpy(y, F, xc):
    """y: (B,M,K), F: (B,M,N), xc: (C,N) -> (B,K) indices.

    One slot at a time, so the largest temporary is (B, M, C), not (B, M, K, C).
    """
    B, _, K = y.shape
    model = np.einsum("bmn,cn->bmc", F, xc)                     # (B, M, C)
    diff = np.empty_like(model)
    dist = np.empty(model.shape)
    out = np.empty((B, K), dtype=np.int64)
    for t in range(K):
        np.subtract(y[:, :, t, None], model, out=diff)
        np.square(np.abs(diff, out=dist), out=dist)
        out[:, t] = np.argmin(np.sum(dist, axis=1), axis=1)
    return out


# The loops below are plain Python so that tests can run them without numba;
# when numba imports they are compiled as _joint_argmin_numba/_afost_argmin_numba.

def _joint_argmin_loop(u, gram, xc, sqrt_rho):
    B, N, K = u.shape
    G = gram.shape[1]
    C = xc.shape[0]
    rho = sqrt_rho * sqrt_rho
    out = np.empty((B, K), dtype=np.int64)
    quad = np.empty((G, C))
    for b in range(B):
        for g in range(G):
            for c in range(C):
                acc = 0.0
                for s in range(N):
                    for p in range(N):
                        acc += (gram[b, g, s, p] * xc[c, s] * np.conj(xc[c, p])).real
                quad[g, c] = acc
        for t in range(K):
            g = t % G
            best = 0
            best_m = np.inf
            for c in range(C):
                lin = 0.0
                for s in range(N):
                    lin += (u[b, s, t] * np.conj(xc[c, s])).real
                m = -4.0 * sqrt_rho * lin + 2.0 * rho * quad[g, c]
                if m < best_m:
                    best_m = m
                    best = c
            out[b, t] = best
    return out


def _afost_argmin_loop(y, F, xc):
    B, M, K = y.shape
    C = xc.shape[0]
    N = xc.shape[1]
    out = np.empty((B, K), dtype=np.int64)
    model = np.empty((M, C), dtype=np.complex128)
    for b in range(B):
        for r in range(M):
            for c in range(C):
                acc = 0.0 + 0.0j
                for s in range(N):
                    acc += F[b, r, s] * xc[c, s]
                model[r, c] = acc
        for t in range(K):
            best = 0
            best_m = np.inf
            for c in range(C):
                m = 0.0
                for r in range(M):
                    d = y[b, r, t] - model[r, c]
                    m += d.real * d.real + d.imag * d.imag
                if m < best_m:
                    best_m = m
                    best = c
            out[b, t] = best
    return out


if _HAVE_NUMBA:
    _joint_argmin_numba = njit(cache=True)(_joint_argmin_loop)
    _afost_argmin_numba = njit(cache=True)(_afost_argmin_loop)


def joint_argmin(u, gram, xc, sqrt_rho):
    """Batched exact-slot-metric candidate argmin; returns (B, K) candidate indices.

    gram is (B, K, N, N) or, when every slot shares one Gram matrix, (B, 1, N, N).
    """
    if numba_enabled():
        return _joint_argmin_numba(
            np.ascontiguousarray(u), np.ascontiguousarray(gram),
            np.ascontiguousarray(xc), float(sqrt_rho),
        )
    return _joint_argmin_numpy(u, gram, xc, float(sqrt_rho))


def afost_argmin(y, F, xc):
    """Batched amplify-and-forward candidate argmin; returns (B, K) candidate indices."""
    if numba_enabled():
        return _afost_argmin_numba(
            np.ascontiguousarray(y), np.ascontiguousarray(F), np.ascontiguousarray(xc)
        )
    return _afost_argmin_numpy(y, F, xc)
