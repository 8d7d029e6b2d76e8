import os
import subprocess
import sys
from pathlib import Path

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


def test_numba_available_by_default(monkeypatch):
    # numba is detected exactly when it imports, and then used unless disabled
    try:
        import numba  # noqa: F401
        importable = True
    except ImportError:
        importable = False
    assert _kernels._HAVE_NUMBA == importable
    monkeypatch.delenv("STSSC_NO_NUMBA", raising=False)
    assert _kernels.numba_enabled() == _kernels._HAVE_NUMBA


def test_env_flag_disables_numba(monkeypatch):
    # checks the flag parsing only: stands in for "numba detected", imports nothing
    monkeypatch.setattr(_kernels, "_HAVE_NUMBA", True)
    monkeypatch.setenv("STSSC_NO_NUMBA", "1")
    assert not _kernels.numba_enabled()
    monkeypatch.setenv("STSSC_NO_NUMBA", "0")
    assert _kernels.numba_enabled()
    monkeypatch.delenv("STSSC_NO_NUMBA")
    assert _kernels.numba_enabled()


def test_joint_argmin_paths_identical():
    pytest.importorskip("numba")
    rng = np.random.default_rng(0)
    for _ in range(5):
        u, gram, _, _, xc = random_problem(rng)
        a = _kernels._joint_argmin_numba(
            np.ascontiguousarray(u), np.ascontiguousarray(gram),
            np.ascontiguousarray(xc), 2.0,
        )
        b = _kernels._joint_argmin_numpy(u, gram, xc, 2.0)
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("shared_gram", [False, True])
def test_loops_match_numpy_kernels(shared_gram):
    # the loops numba compiles, run as plain Python on every machine
    rng = np.random.default_rng(3)
    for N, K in ((2, 2), (3, 3)):
        u, gram, _, _, xc = random_problem(rng, B=6, N=N, K=K)
        if shared_gram:
            gram = gram[:, :1]
        else:                                   # a different Gram per slot
            gram = gram * rng.uniform(0.2, 5.0, size=(6, K, 1, 1))
        np.testing.assert_array_equal(
            _kernels._joint_argmin_loop(u, gram, xc, 2.0),
            _kernels._joint_argmin_numpy(u, gram, xc, 2.0),
        )


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


def tied_problem():
    # all-zero statistics tie every candidate; every path must pick index 0
    xc = enumerate_candidates(get_constellation("qpsk"), 2)
    u = np.zeros((1, 2, 2), dtype=complex)
    gram = np.zeros((1, 2, 2, 2), dtype=complex)
    return u, gram, xc


def test_tie_break_keeps_first_minimum():
    u, gram, xc = tied_problem()
    np.testing.assert_array_equal(_kernels._joint_argmin_numpy(u, gram, xc, 1.0), 0)
    np.testing.assert_array_equal(_kernels._joint_argmin_loop(u, gram, xc, 1.0), 0)


def test_tie_break_keeps_first_minimum_numba():
    pytest.importorskip("numba")
    u, gram, xc = tied_problem()
    np.testing.assert_array_equal(
        _kernels._joint_argmin_numba(u, gram, np.ascontiguousarray(xc), 1.0), 0
    )


def test_simulation_identical_under_env_flag():
    # the same seeded point must produce identical counts with numba disabled
    code = (
        "from stssc.harness import SimConfig, run_point;"
        "r = run_point(SimConfig(scheme='stssc', code='alamouti', packets=20,"
        " packet_bits=100, seed=5), 10.0);"
        "print(r.bit_errors, r.packet_errors, r.slots_total)"
    )
    outs = []
    for flag in ("0", "1"):
        env = dict(os.environ, STSSC_NO_NUMBA=flag)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_bench_kernels_without_numba_prints_one_line():
    # the benchmark script run as __main__ with numba made unimportable
    root = Path(__file__).resolve().parents[1]
    script = root / "benchmarks" / "bench_kernels.py"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import runpy, sys; sys.modules['numba'] = None;"
            f"runpy.run_path({str(script)!r}, run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "needs numba" in proc.stderr
