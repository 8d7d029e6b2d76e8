"""The benchmark's four workloads, run through stssc's public entry points.

A workload runs *passes*.  A pass is a fixed amount of work and one timing
sample.  Pass i of a run with benchmark seed s draws all its inputs from
``pass_seed(s, i)``.  A pass records its wall time and its CPU time: that of
this process and of the pool workers it reaped (``cpu_seconds``).  CPU time
leaves out the time the hypervisor hands a VM's processors to other guests,
which on a shared host makes wall time vary by a factor of two from one
pass to the next.  The program is called through
module attributes (``harness.run_sweep``, ``decoder.matched_filter``, ...)
so that the traced run can wrap each call where it is looked up.

Why each workload exists is recorded in BENCHMARK.json; the sizes below
make one pass take about 1-3 CPU seconds on a 2-vCPU Xeon VM (numpy kernel path).
"""

import contextlib
import hashlib
import io
import os
import resource
import time
from dataclasses import dataclass, field, replace
from math import ceil, sqrt

import numpy as np

from stssc import channel, cli, decoder, designs, harness, modem, schemes
from stssc.harness import SimConfig

PAPER_SNR = "0:2:30"
PAPER_SNR_DB = tuple(float(s) for s in range(0, 31, 2))
PAPER_PACKETS = 50          # packet sets per SNR point in one paper-sweep pass
PAPER_WORKERS = 2
# fixed-seed sweep whose CSV is compared between worker counts and with the
# digest recorded on the seed commit
DIGEST_PACKETS = 4
DIGEST_SEED = 0

LONG_BITS = 100_000
LONG_SNR_DB = 10.0

SHORT_BITS = 128
SHORT_PACKETS = 400         # packet sets per scheme x code in one short-baselines pass
SHORT_SNR_DB = 10.0

ORACLE_CASES = (("alamouti", "qpsk", 2), ("c34", "qpsk", 3), ("c44", "bpsk", 4))
ORACLE_FADINGS = ("unit-mag", "rayleigh")
ORACLE_SNR_DB = (0.0, 10.0, 20.0)
ORACLE_BLOCKS = 100         # blocks per (code, fading, SNR) case in one pass


def cpu_seconds() -> float:
    """User and system CPU time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass ``index`` in a run with benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    payload_bits: int
    blocks: int
    attempted: int = 1
    failed: int = 0
    tally: dict = field(default_factory=dict)   # BER label -> [bit errors, bits]


def add_tally(total: dict, part: dict) -> None:
    for label, (errors, bits) in part.items():
        entry = total.setdefault(label, [0, 0])
        entry[0] += errors
        entry[1] += bits


def ber_verdicts(tally: dict, references: dict, z: float, min_expected_errors: float):
    """Compare each tallied BER with its recorded reference: (name, passed) pairs.

    A BER passes when it lies within ``z`` binomial standard errors (of the
    observed and the reference estimate combined) of the reference.  Points
    where the reference predicts fewer than ``min_expected_errors`` errors
    are not compared.
    """
    out = []
    for label, (errors, bits) in sorted(tally.items()):
        ref = references.get(label)
        if ref is None:
            out.append((f"BER {label}: no recorded reference", False))
            continue
        p, ref_bits = ref["ber"], ref["bits"]
        if p * bits < min_expected_errors:
            continue
        se = sqrt(p * (1.0 - p) * (1.0 / bits + 1.0 / ref_bits))
        score = (errors / bits - p) / se
        out.append((f"BER {label}: {errors / bits:.4e} vs reference {p:.4e} "
                    f"({score:+.2f} se, limit {z:g})", abs(score) <= z))
    return out


def section(tracer, label):
    """The tracer's section for ``label``, or no-op when the pass is untraced."""
    return contextlib.nullcontext() if tracer is None else tracer.section(label)


def ber_label(scheme: str, code: str, snr_db: float) -> str:
    return f"{scheme}/{code}@{snr_db:g}dB"


def blocks_per_set(cfg: SimConfig) -> int:
    cfg = cfg.resolved()
    bps = modem.get_constellation(cfg.mod).bits_per_symbol
    return ceil(cfg.packet_bits / (bps * designs.build_design(cfg.code).K))


class SimulationWorkload:
    """Packet-set simulation through ``harness.run_sweep``, one sweep per config."""

    workers = 1

    def __init__(self, configs, workdir: str):
        self.configs = configs
        self.workdir = workdir                      # scratch directory for CSV files
        self.blocks = []                            # coherence blocks per pass, per config

    def setup(self) -> None:
        """Build the designs, validate the configs, simulate one packet set per config."""
        self.configs = [harness.validate(cfg) for cfg in self.configs]
        self.blocks = [blocks_per_set(cfg) * cfg.packets * len(cfg.snr_db_list)
                       for cfg in self.configs]
        for cfg in self.configs:
            designs.build_design(cfg.code)
            harness.run_sweep(replace(cfg, packets=1, snr_db_list=cfg.snr_db_list[:1], workers=1))

    def run_pass(self, seed: int, tracer=None, workers: int | None = None) -> PassResult:
        bits = blocks = 0
        wall = cpu = 0.0
        tally = {}
        for cfg, cfg_blocks in zip(self.configs, self.blocks):
            run = replace(cfg, seed=seed, workers=workers or self.workers)
            t0, c0 = time.perf_counter(), cpu_seconds()
            with section(tracer, cfg.code):
                records = harness.run_sweep(run)
            wall += time.perf_counter() - t0
            cpu += cpu_seconds() - c0
            for rec in records:
                tally[ber_label(cfg.scheme, cfg.code, rec.snr_db)] = [rec.bit_errors, rec.bits_total]
                bits += rec.bits_total
            blocks += cfg_blocks
        return PassResult(wall, cpu, bits, blocks, attempted=len(self.configs), tally=tally)

    def checks(self, seed: int):
        """Correctness checks beside the BER comparison: (name, passed) pairs."""
        out = []
        for cfg in self.configs:
            records = harness.run_sweep(replace(cfg, seed=seed, noiseless=True, packets=1))
            errors = sum(rec.bit_errors for rec in records)
            out.append((f"noiseless {cfg.scheme}/{cfg.code}: {errors} bit errors", errors == 0))
        return out


class PaperSweepWorkload(SimulationWorkload):
    """The user's sweep, run as ``stssc-sim run ...`` through ``cli.main``."""

    workers = PAPER_WORKERS

    def __init__(self, workdir: str):
        super().__init__([SimConfig(
            scheme="stssc", code="alamouti", mod="qpsk", snr_db_list=PAPER_SNR_DB,
            packets=PAPER_PACKETS, packet_bits=1000,
        )], workdir)
        self.digest = None      # sha256 of the fixed-seed workers=1 CSV, set by checks()

    @staticmethod
    def argv(packets, seed, workers, out_path, noiseless=False):
        argv = ["run", "--scheme", "stssc", "--code", "alamouti", "--mod", "qpsk",
                "--snr", PAPER_SNR, "--packets", str(packets), "--packet-bits", "1000",
                "--seed", str(seed), "--workers", str(workers), "-o", out_path]
        return argv + ["--noiseless"] if noiseless else argv

    @staticmethod
    def run_cli(argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"stssc-sim {' '.join(argv)} exited with {code}")

    def run_pass(self, seed, tracer=None, workers=None) -> PassResult:
        cfg = self.configs[0]
        path = os.path.join(self.workdir, "sweep.csv")
        argv = self.argv(cfg.packets, seed, workers or self.workers, path)
        t0, c0 = time.perf_counter(), cpu_seconds()
        with section(tracer, cfg.code):
            self.run_cli(argv)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        tally = {
            ber_label(cfg.scheme, cfg.code, float(row["snr_db"])):
                [int(row["bit_errors"]), int(row["bits_total"])]
            for row in harness.read_csv(path)
        }
        os.unlink(path)
        bits = sum(b for _, b in tally.values())
        return PassResult(wall, cpu, bits, self.blocks[0], tally=tally)

    def checks(self, seed):
        paths = {}
        for workers in (1, PAPER_WORKERS):
            paths[workers] = os.path.join(self.workdir, f"digest-w{workers}.csv")
            self.run_cli(self.argv(DIGEST_PACKETS, DIGEST_SEED, workers, paths[workers]))
        with open(paths[1], "rb") as fh:
            one = fh.read()
        with open(paths[PAPER_WORKERS], "rb") as fh:
            two = fh.read()
        noiseless = os.path.join(self.workdir, "noiseless.csv")
        self.run_cli(self.argv(1, seed, 1, noiseless, noiseless=True))
        errors = sum(int(row["bit_errors"]) for row in harness.read_csv(noiseless))
        for path in (*paths.values(), noiseless):
            os.unlink(path)
        self.digest = hashlib.sha256(one).hexdigest()
        return [
            (f"CSV bytes identical at workers=1 and workers={PAPER_WORKERS}", one == two),
            (f"noiseless stssc/alamouti sweep: {errors} bit errors", errors == 0),
        ]


class OracleWorkload:
    """Per-block reference chain checked block by block against the brute-force oracle."""

    workers = 1

    def __init__(self, workdir: str):
        self.cases = []

    def setup(self) -> None:
        """Build the designs and constellations, decode one block per code."""
        self.cases = [(designs.build_design(code), modem.get_constellation(mod), n)
                      for code, mod, n in ORACLE_CASES]
        self._run(np.random.default_rng(0), blocks=1, snrs=ORACLE_SNR_DB[:1],
                  fadings=ORACLE_FADINGS[:1], tracer=None)

    @staticmethod
    def _block(design, constellation, n, rng):
        bits = design.K * constellation.bits_per_symbol
        packets = [modem.Packet(bits=rng.integers(0, 2, size=bits), source=s) for s in range(n)]
        return modem.frame_packets(packets, constellation, design.K)[0]

    def _run(self, rng, blocks, snrs, fadings, tracer):
        total = mismatches = bits = 0
        for design, constellation, n in self.cases:
            with section(tracer, design.name):
                candidates = decoder.enumerate_candidates(constellation, n)
                kappa = 1.0 / sqrt(n)
                for fading in fadings:
                    for snr_db in snrs:
                        rho = 10.0 ** (snr_db / 10.0)
                        for _ in range(blocks):
                            mismatches += self._check_block(design, constellation, n, fading,
                                                            rho, kappa, candidates, rng)
            total += blocks * len(fadings) * len(snrs)
            bits += blocks * len(fadings) * len(snrs) * n * design.K * constellation.bits_per_symbol
        return total, mismatches, bits

    def _check_block(self, design, constellation, n, fading, rho, kappa, candidates, rng) -> int:
        """Decode one random block both ways; 1 if the fast chain and the oracle disagree."""
        ch = channel.draw_channel(fading, n, design.M, rho, rng)
        block = self._block(design, constellation, n, rng)
        trace = schemes.stssc_pipeline(block, ch, design, rng)
        gains = schemes.relay_gains(ch)
        stats = decoder.matched_filter(trace, ch, design, gains)
        fast = np.column_stack([
            decoder.joint_ml_decode_slot(stats, t, constellation, kappa, rho, n)
            for t in range(design.K)
        ])
        oracle = decoder.brute_force_oracle(trace, ch, design, gains, candidates, kappa)
        return int(not np.array_equal(fast, oracle))

    def run_pass(self, seed, tracer=None, workers=None) -> PassResult:
        t0, c0 = time.perf_counter(), cpu_seconds()
        total, mismatches, bits = self._run(np.random.default_rng(seed), ORACLE_BLOCKS,
                                            ORACLE_SNR_DB, ORACLE_FADINGS, tracer)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        return PassResult(wall, cpu, bits, total, attempted=total, failed=mismatches)

    def checks(self, seed):
        return []


def short_baseline_configs():
    return [
        SimConfig(scheme=scheme, code=code, snr_db_list=(SHORT_SNR_DB,),
                  packets=SHORT_PACKETS, packet_bits=SHORT_BITS)
        for scheme in ("afost", "dstc", "direct") for code in ("alamouti", "c44")
    ]


def long_packet_configs():
    return [
        SimConfig(scheme="stssc", code=code, snr_db_list=(LONG_SNR_DB,),
                  packets=1, packet_bits=LONG_BITS)
        for code in ("c34", "c44")
    ]


WORKLOADS = {
    "paper-sweep": PaperSweepWorkload,
    "long-packets": lambda workdir: SimulationWorkload(long_packet_configs(), workdir),
    "short-baselines": lambda workdir: SimulationWorkload(short_baseline_configs(), workdir),
    "oracle-check": OracleWorkload,
}


def make(name: str, workdir: str):
    """The workload called ``name``, writing scratch files under ``workdir``."""
    return WORKLOADS[name](workdir)
