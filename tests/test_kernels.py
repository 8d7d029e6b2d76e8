import numpy as np
import pytest

from stssc import _kernels
from stssc.decoder import enumerate_candidates
from stssc.modem import get_constellation


def random_problem(rng, B=40, N=2, K=2, M=3):
    c = get_constellation("qpsk")
    xc = enumerate_candidates(c, N) / np.sqrt(N)
    u = rng.normal(size=(B, N, K)) + 1j * rng.normal(size=(B, N, K))
    h = rng.normal(size=(B, N)) + 1j * rng.normal(size=(B, N))
    gram = np.repeat(np.einsum("bs,bp->bsp", h, h.conj())[:, None], K, axis=1)
    y = rng.normal(size=(B, M, K)) + 1j * rng.normal(size=(B, M, K))
    F = rng.normal(size=(B, M, N)) + 1j * rng.normal(size=(B, M, N))
    return u, gram, y, F, xc


def dense_reference(u, gram, xc, sqrt_rho):
    # every candidate's slot metric -4 sqrt(rho) Re(x^H u_t) + 2 rho Re(x^T G x*),
    # as dense einsums; first candidate of least metric
    lin = np.einsum("bnk,cn->bkc", u, xc.conj()).real
    quad = np.einsum("bgsp,cs,cp->bgc", gram, xc, xc.conj()).real
    return np.argmin(-4.0 * sqrt_rho * lin + 2.0 * sqrt_rho**2 * quad, axis=2)


@pytest.mark.parametrize("shared_gram", [False, True])
def test_joint_argmin_matches_dense_reference(shared_gram):
    rng = np.random.default_rng(3)
    for N in (2, 3, 4):
        u, gram, _, _, xc = random_problem(rng, B=200, N=N, K=N)
        if shared_gram:
            gram = gram[:, :1]
        else:                                   # an independent Gram per slot
            h = rng.normal(size=(200, N, N)) + 1j * rng.normal(size=(200, N, N))
            gram = np.einsum("bks,bkp->bksp", h, h.conj())
        np.testing.assert_array_equal(_kernels.joint_argmin(u, gram, xc, 2.0),
                                      dense_reference(u, gram, xc, 2.0))


def test_shared_gram_matches_repeated_gram():
    # one (B, 1, N, N) Gram per block decides as the same Gram repeated per slot
    rng = np.random.default_rng(4)
    for N, K in ((2, 2), (3, 3), (4, 4)):
        u, gram, _, _, xc = random_problem(rng, B=500, N=N, K=K)
        np.testing.assert_array_equal(
            _kernels.joint_argmin(u, gram[:, :1], xc, 2.0),
            _kernels.joint_argmin(u, gram, xc, 2.0),
        )


def afost_distances(y, F, xc):
    # dense squared distances ||y_t - F x||^2 of every candidate, (B, K, C)
    model = np.einsum("bmn,cn->bmc", F, xc)
    diff = y[:, :, :, None] - model[:, :, None, :]
    return np.sum(np.abs(diff) ** 2, axis=1)


def afost_broadcast(y, F, xc):
    # the dense reference search: first candidate of least distance
    return np.argmin(afost_distances(y, F, xc), axis=2)


def test_afost_argmin_matches_broadcast():
    rng = np.random.default_rng(6)
    for N, K, M in ((1, 2, 2), (2, 2, 2), (3, 3, 3), (4, 4, 4)):
        _, _, y, F, xc = random_problem(rng, B=300, N=N, K=K, M=M)
        np.testing.assert_array_equal(_kernels.afost_argmin(y, F, xc),
                                      afost_broadcast(y, F, xc))
        # a source whose gains are all 0 ties the candidates that differ only
        # in its symbol: both keep the first of them
        F = F * (rng.uniform(size=(300, 1, N)) < 0.5)
        np.testing.assert_array_equal(_kernels.afost_argmin(y, F, xc),
                                      afost_broadcast(y, F, xc))
    # zero gains tie every candidate: both keep the first minimum
    xc = enumerate_candidates(get_constellation("qpsk"), 2)
    y = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    F = np.zeros((3, 2, 2), dtype=complex)
    np.testing.assert_array_equal(_kernels.afost_argmin(y, F, xc), 0)
    np.testing.assert_array_equal(afost_broadcast(y, F, xc), 0)


def test_afost_argmin_picks_a_nearest_candidate_on_signed_unit_gains():
    # gains in {0, +-1} let different candidates give the same F x exactly;
    # the expanded metric may then pick another, equally distant, candidate,
    # so every decision must be at the least distance, and equal the
    # reference's wherever that least distance is held by one candidate
    rng = np.random.default_rng(7)
    for N, K, M in ((2, 2, 2), (3, 3, 3), (4, 4, 4)):
        _, _, y, F, xc = random_problem(rng, B=300, N=N, K=K, M=M)
        F = rng.integers(-1, 2, size=F.shape) + 0j
        dist = afost_distances(y, F, xc)
        idx = _kernels.afost_argmin(y, F, xc)
        least = np.sort(dist, axis=2)
        np.testing.assert_allclose(np.take_along_axis(dist, idx[..., None], axis=2)[..., 0],
                                   least[..., 0], rtol=1e-12, atol=0)
        unique = least[..., 1] - least[..., 0] > 1e-9 * least[..., 0]
        assert unique.mean() > 0.3
        np.testing.assert_array_equal(idx[unique], afost_broadcast(y, F, xc)[unique])


def test_tie_break_keeps_first_minimum():
    # all-zero statistics tie every candidate: the search keeps index 0
    xc = enumerate_candidates(get_constellation("qpsk"), 2)
    u = np.zeros((1, 2, 2), dtype=complex)
    gram = np.zeros((1, 2, 2, 2), dtype=complex)
    np.testing.assert_array_equal(_kernels._joint_argmin_numpy(u, gram, xc, 1.0), 0)
