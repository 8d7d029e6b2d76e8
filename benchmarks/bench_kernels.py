"""Benchmark the numba decoding kernels against the pure-numpy fallback.

Run:  python benchmarks/bench_kernels.py [--blocks B] [--repeats R]

Needs numba (`pip install -e .[fast]`); without it the script says so in
one line and exits with status 1.

The joint slot-metric argmin and the amplify-and-forward argmin dominate
simulation runtime; this script times both paths on representative problem
sizes for every shipped code.  The numba path is warmed up once before
timing so compilation cost is excluded.
"""

import argparse
import sys
import time

import numpy as np

from stssc import _kernels
from stssc._kernels import _afost_argmin_numpy, _joint_argmin_numpy
from stssc.decoder import enumerate_candidates
from stssc.designs import DESIGN_NAMES, build_design
from stssc.modem import get_constellation


def make_problem(code, blocks, rng):
    design = build_design(code)
    c = get_constellation("bpsk" if design.real_only else "qpsk")
    n, m, k = design.M, design.M, design.K
    xc = np.ascontiguousarray(enumerate_candidates(c, n) / np.sqrt(n))
    u = rng.normal(size=(blocks, n, k)) + 1j * rng.normal(size=(blocks, n, k))
    h = rng.normal(size=(blocks, n)) + 1j * rng.normal(size=(blocks, n))
    gram = np.einsum("bs,bp->bsp", h, h.conj())[:, None]          # one Gram per block
    y = rng.normal(size=(blocks, m, k)) + 1j * rng.normal(size=(blocks, m, k))
    F = rng.normal(size=(blocks, m, n)) + 1j * rng.normal(size=(blocks, m, n))
    return (
        np.ascontiguousarray(u), np.ascontiguousarray(gram),
        np.ascontiguousarray(y), np.ascontiguousarray(F), xc,
    )


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=20000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if not _kernels._HAVE_NUMBA:
        sys.exit("bench_kernels.py needs numba, which is not installed: pip install -e .[fast]")
    _joint_argmin_numba = _kernels._joint_argmin_numba
    _afost_argmin_numba = _kernels._afost_argmin_numba

    rng = np.random.default_rng(0)
    print(f"{args.blocks} blocks per call, best of {args.repeats} repeats")
    print(f"{'kernel':>22} {'code':>8} {'numpy':>10} {'numba':>10} {'speedup':>8}")
    for code in DESIGN_NAMES:
        u, gram, y, F, xc = make_problem(code, args.blocks, rng)
        # warm-up compiles and checks agreement
        assert np.array_equal(
            _joint_argmin_numba(u, gram, xc, 2.0), _joint_argmin_numpy(u, gram, xc, 2.0)
        )
        assert np.array_equal(_afost_argmin_numba(y, F, xc), _afost_argmin_numpy(y, F, xc))
        t_np = best_of(lambda: _joint_argmin_numpy(u, gram, xc, 2.0), args.repeats)
        t_nb = best_of(lambda: _joint_argmin_numba(u, gram, xc, 2.0), args.repeats)
        print(f"{'joint_argmin':>22} {code:>8} {t_np * 1e3:9.1f}ms {t_nb * 1e3:9.1f}ms {t_np / t_nb:7.2f}x")
        t_np = best_of(lambda: _afost_argmin_numpy(y, F, xc), args.repeats)
        t_nb = best_of(lambda: _afost_argmin_numba(y, F, xc), args.repeats)
        print(f"{'afost_argmin':>22} {code:>8} {t_np * 1e3:9.1f}ms {t_nb * 1e3:9.1f}ms {t_np / t_nb:7.2f}x")


if __name__ == "__main__":
    main()
