"""Acceptance suite: ten numbered criteria, one console PASS/FAIL line each.

Every test writes `ACCEPTANCE <n> <PASS|FAIL> -- <measurements>` to the real
console (bypassing pytest's capture) before asserting, so the verdict is
visible even when the assertion fails.

Criteria 6 (first clause), 7 (first clause) and 8 compare the bit error rate
of the superimposed space-time scheme against the amplify-and-forward and
decode-and-forward baselines.  Under this simulator's channel model -- every
gain constant for a whole coherence block, relays forwarding in
time-orthogonal phases -- the space-time scheme's decision statistics are
distributionally identical to amplify-and-forward's (each symbol is seen
once per relay through the same scalar relay-destination gain either way),
so no BER gap exists for criterion 6 and no slope gap for criterion 8, and
the decode-and-forward comparison of criterion 7 comes out reversed.  These
tests implement the criteria exactly as stated and are expected to fail
honestly; see the README's "Acceptance suite" section for the analysis.
"""

import sys
import time

import numpy as np
import pytest

from stssc.batch import relay_encode, stssc_decode_batch, tile_blocks
from stssc.channel import _draw_gains, awgn, draw_channel
from stssc.decoder import brute_force_indices, enumerate_candidates, matched_filter
from stssc.designs import DESIGN_NAMES, build_design, verify_orthogonality
from stssc.harness import SimConfig, _binomial_stderr, emit_csv, run_point, run_sweep
from stssc.modem import get_constellation
from stssc.schemes import af_gains, relay_gains, stssc_pipeline

from conftest import random_block

CONFIGS = (("alamouti", "qpsk", 2), ("c34", "qpsk", 3), ("c44", "bpsk", 4))


def report(criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion} {verdict} -- {detail}"
    print(line, file=sys.__stdout__, flush=True)
    return line


def test_criterion_01_orthogonal_design_suite():
    t0 = time.perf_counter()
    worst = {
        name: verify_orthogonality(build_design(name), trials=1000, seed=1)
        for name in DESIGN_NAMES
    }
    elapsed = time.perf_counter() - t0
    ok = all(dev < 1e-12 for dev in worst.values()) and elapsed < 1.0
    detail = ", ".join(f"{k} dev={v:.2e}" for k, v in worst.items())
    line = report(1, ok, f"{detail}, {elapsed:.2f}s")
    assert ok, line


def oracle_observations(design, X, hSR, hRD, g, n, w, rho):
    """Destination observations y = hRD g (q A + q* B) + w, from the dense A and B; (B, M, T)."""
    q = np.sqrt(rho) * (hSR.transpose(0, 2, 1) @ X) + n                      # (B, M, K)
    z = np.einsum("brk,ktr->brt", q, design.A) + np.einsum("brk,ktr->brt", q.conj(), design.B)
    return (hRD * g)[:, :, None] * z + w


def test_criterion_02_decoder_oracle_equivalence():
    # the simulator's stssc engine decides each case's blocks, drawn as
    # arrays, in tiles of tile_blocks blocks; the brute-force oracle decides
    # the same blocks from the observations the dense A/B model gives
    t0 = time.perf_counter()
    blocks_per_case = 10_000
    total = mismatches = 0
    rng = np.random.default_rng(2024)
    for code, mod, n in CONFIGS:
        design = build_design(code)
        M, K, T = design.M, design.K, design.T
        c = get_constellation(mod)
        kappa = 1 / np.sqrt(n)
        cand = enumerate_candidates(c, n)
        tile_size = tile_blocks("stssc", design, c, n)
        for fading in ("unit-mag", "rayleigh"):
            for snr_db in (0.0, 10.0, 20.0):
                rho = 10.0 ** (snr_db / 10.0)
                hSR = _draw_gains(fading, rng, (blocks_per_case, n, M))
                hRD = _draw_gains(fading, rng, (blocks_per_case, M))
                X = kappa * c.points[rng.integers(0, c.size, size=(blocks_per_case, n, K))]
                bn = awgn((blocks_per_case, M, K), 1.0, rng)
                fw = awgn((blocks_per_case, M, T), 1.0, rng)
                for lo in range(0, blocks_per_case, tile_size):
                    tile = slice(lo, lo + tile_size)
                    fast = stssc_decode_batch(X[tile], hSR[tile], hRD[tile], bn[tile], fw[tile],
                                              design, kappa * cand, rho, 1.0)
                    g = af_gains(hSR[tile], rho, 1.0, source_axis=1)
                    y = oracle_observations(design, X[tile], hSR[tile], hRD[tile], g, bn[tile],
                                            fw[tile], rho)
                    oracle = brute_force_indices(y, hSR[tile], hRD[tile], g, design, cand,
                                                 kappa, rho)
                    mismatches += np.count_nonzero(np.any(fast != oracle, axis=1))
                total += blocks_per_case
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 300.0
    line = report(2, ok, f"{total - mismatches}/{total} blocks identical, {elapsed:.0f}s")
    assert ok, line


def test_criterion_03_decoupling():
    worst = 0.0
    rng = np.random.default_rng(3)
    for code, mod, n in CONFIGS:
        design = build_design(code)
        c = get_constellation(mod)
        kappa = 1 / np.sqrt(n)
        for _ in range(100):
            ch = draw_channel("rayleigh", n, design.M, 1.0, rng, sigma2=0.0)
            block = random_block(c, n, design.K, kappa, rng)
            g = relay_gains(ch)
            base = matched_filter(stssc_pipeline(block, ch, design, rng), ch, design, g).u
            pert = random_block(c, n, design.K, kappa, rng)
            for t in range(design.K):
                raw = pert.raw.copy()
                raw[:, t] = block.raw[:, t]         # only slot t unchanged
                other = type(block)(X=kappa * raw, raw=raw, kappa=kappa)
                u2 = matched_filter(stssc_pipeline(other, ch, design, rng), ch, design, g).u
                rel = np.max(np.abs(u2[:, t] - base[:, t]) / np.maximum(np.abs(base[:, t]), 1e-300))
                worst = max(worst, float(rel))
    ok = worst <= 1e-10
    line = report(3, ok, f"max relative u change {worst:.2e} over 100 draws x 3 designs")
    assert ok, line


def test_criterion_04_noiseless_correctness():
    failures = []
    for scheme in ("stssc", "afost", "dstc", "direct"):
        for code, _, _ in CONFIGS:
            cfg = SimConfig(scheme=scheme, code=code, noiseless=True, seed=4,
                            packets=100, packet_bits=1000, snr_db_list=(10.0,))
            rec = run_point(cfg, 10.0)
            if rec.ber != 0.0 or rec.per != 0.0:
                failures.append(f"{scheme}/{code}: ber={rec.ber} per={rec.per}")
    ok = not failures
    line = report(4, ok, "ber=per=0 for 4 schemes x 3 codes" if ok else "; ".join(failures))
    assert ok, line


def test_criterion_05_power_constraint():
    # unit-energy symbols (kappa = 1) so the amplify-and-forward gain rule's
    # power constraint E|z|^2 = rho is exact; the gains come from the
    # simulator's rule (af_gains), the relay codewords from its encoder
    # (relay_encode), and every check allows a 2% Monte Carlo margin
    rng = np.random.default_rng(5)
    draws = 10**5
    rho, sigma2 = 10.0, 1.0
    details = []
    ok = True
    # amplify-and-forward: z = g * q, averaged over channels, symbols, noise
    n = 2
    h = (rng.normal(size=(draws, n)) + 1j * rng.normal(size=(draws, n))) / np.sqrt(2)
    g = af_gains(h, rho, sigma2, source_axis=1)
    c = get_constellation("qpsk")
    x = c.points[rng.integers(0, c.size, size=(draws, n))]
    w = np.sqrt(sigma2 / 2) * (rng.normal(size=draws) + 1j * rng.normal(size=draws))
    q = np.sqrt(rho) * np.sum(h * x, axis=1) + w
    mean_af = float(np.mean(np.abs(g * q) ** 2))
    ok &= abs(mean_af - rho) / rho < 0.02
    details.append(f"afost E|z|^2={mean_af:.3f} within 2% of rho={rho}")
    # space-time relays: per-slot power within rho * max_t(||a_t||^2 + ||b_t||^2)
    for code, mod, n in CONFIGS:
        design = build_design(code)
        cst = get_constellation(mod)
        reps = draws // design.K
        h = (rng.normal(size=(reps, n)) + 1j * rng.normal(size=(reps, n))) / np.sqrt(2)
        g = af_gains(h, rho, sigma2, source_axis=1)
        x = cst.points[rng.integers(0, cst.size, size=(reps, n, design.K))]
        w = np.sqrt(sigma2 / 2) * (
            rng.normal(size=(reps, design.K)) + 1j * rng.normal(size=(reps, design.K))
        )
        q = np.sqrt(rho) * np.einsum("bn,bnk->bk", h, x) + w
        # every relay encodes the same observation q; draws on the last axis
        z = g * relay_encode(design, np.repeat(q.T[None], design.M, axis=0))
        peak = np.max(np.mean(np.abs(z) ** 2, axis=2), axis=1)                   # (M,)
        bound = rho * np.max(np.sum(np.abs(design.A) ** 2 + np.abs(design.B) ** 2, axis=1),
                             axis=0)                                              # (M,)
        ok &= bool(np.all(peak <= bound * 1.02))
        r = int(np.argmax(peak))
        details.append(f"{code} max slot power {peak[r]:.3f} <= {bound[r] * 1.02:.2f} "
                       f"(bound {bound[r]:.1f} + 2% Monte Carlo margin)")
    line = report(5, ok, "; ".join(details))
    assert ok, line


def _desk_point(scheme, code, seed, snr_db=10.0, **kw):
    cfg = SimConfig(scheme=scheme, code=code, packets=500, packet_bits=200,
                    snr_db_list=(snr_db,), seed=seed, **kw)
    return run_point(cfg, snr_db)


def test_criterion_06_two_source_ordering():
    t0 = time.perf_counter()
    recs = {s: _desk_point(s, "alamouti", seed=10) for s in ("stssc", "afost", "dstc", "direct")}
    se = {s: _binomial_stderr(r.ber, r.bits_total) for s, r in recs.items()}
    gap = recs["afost"].ber - recs["stssc"].ber
    comb = float(np.hypot(se["stssc"], se["afost"]))
    clause1 = gap > 2.0 * comb
    ratio = max(recs["dstc"].ber, recs["direct"].ber) / min(recs["dstc"].ber, recs["direct"].ber)
    clause2 = ratio < 3.0
    elapsed = time.perf_counter() - t0
    ok = clause1 and clause2 and elapsed < 180.0
    line = report(
        6, ok,
        f"stssc={recs['stssc'].ber:.4f} afost={recs['afost'].ber:.4f} "
        f"gap={gap:+.4f} ({gap / comb:+.1f} se, need > +2); "
        f"dstc/direct ratio={ratio:.2f} (need < 3); {elapsed:.0f}s",
    )
    assert ok, line


def test_criterion_07_four_source_ordering():
    r_st = _desk_point("stssc", "c44", seed=11)
    r_ds = _desk_point("dstc", "c44", seed=11)
    r_af4 = _desk_point("afost", "c44", seed=11)
    r_af2 = _desk_point("afost", "alamouti", seed=11, mod="bpsk")
    gap = r_ds.ber - r_st.ber
    comb = float(np.hypot(_binomial_stderr(r_st.ber, r_st.bits_total),
                          _binomial_stderr(r_ds.ber, r_ds.bits_total)))
    clause1 = gap > 2.0 * comb
    clause2 = r_af4.ber > r_af2.ber
    ok = clause1 and clause2
    line = report(
        7, ok,
        f"stssc={r_st.ber:.4f} dstc={r_ds.ber:.4f} gap={gap:+.4f} "
        f"({gap / comb:+.1f} se, need > +2); afost N=4 {r_af4.ber:.4f} > N=2 {r_af2.ber:.4f}: {clause2}",
    )
    assert ok, line


def test_criterion_08_diversity_slope_ordering():
    snrs = (20.0, 22.0, 24.0, 26.0, 28.0, 30.0)
    slopes = {}
    for scheme in ("stssc", "afost"):
        cfg = SimConfig(scheme=scheme, code="alamouti", fading="rayleigh",
                        packets=2000, packet_bits=1000, snr_db_list=snrs,
                        seed=0, workers=8)
        bers = [max(r.ber, 0.5 / r.bits_total) for r in run_sweep(cfg)]
        slopes[scheme] = float(np.polyfit(snrs, np.log10(bers), 1)[0])
    ok = slopes["stssc"] < slopes["afost"]
    line = report(
        8, ok,
        f"log10(BER)/dB slope stssc={slopes['stssc']:.4f} afost={slopes['afost']:.4f} "
        "(need stssc strictly steeper)",
    )
    assert ok, line


def test_criterion_09_determinism(tmp_path):
    base = dict(scheme="stssc", code="alamouti", packets=100, packet_bits=200,
                snr_db_list=(0.0, 10.0, 20.0, 30.0), seed=9)
    blobs = {}
    for workers in (1, 8):
        paths = []
        for run in range(2):
            path = tmp_path / f"w{workers}_{run}.csv"
            emit_csv(run_sweep(SimConfig(workers=workers, **base)), str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
        blobs[workers] = paths[0]
    ok = blobs[1] == blobs[8]
    line = report(9, ok, "byte-identical CSVs across repeats and workers {1, 8}")
    assert ok, line


def test_criterion_10_paper_scale_runtime(tmp_path):
    cfg = SimConfig(scheme="stssc", code="alamouti", packets=2000, packet_bits=1000,
                    snr_db_list=tuple(float(s) for s in range(0, 31, 2)),
                    seed=0, workers=8)
    t0 = time.perf_counter()
    records = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    emit_csv(records, str(tmp_path / "paper_scale.csv"))
    ok = elapsed < 600.0 and len(records) == 16
    line = report(10, ok, f"16-point 2000x1000-bit sweep in {elapsed:.0f}s (limit 600s)")
    assert ok, line
