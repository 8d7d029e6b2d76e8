"""Benchmark of the stssc simulator: one workload per run, from the repository root.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 22 --trace 0

--trace 0 times untraced passes for --seconds and prints the end-to-end
metrics in normalised CPU seconds: CPU time of this process and its pool
workers, so that time the hypervisor gives to other guests does not count,
divided by the slowdown a fixed reference loop shows between the passes.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics.  Both check the program's outputs and print, as the
last stdout line, one JSON object with the keys correct, attempted,
failed and metrics.  Metric names and units come from BENCHMARK.json;
BER references, the recorded CSV digest and each per-layer metric's
target are in perfbench/spec.json.

The program is imported from ./src of the checkout; without it the run
exits with a non-zero status and prints no result.
"""

import os

# one BLAS/OpenMP thread per process, so --workers 2 means two busy threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# CPU seconds of one reference_loop() call at unit slowdown: about its mean on
# the 2-vCPU Xeon VM the benchmark was written on
REFERENCE_S = 0.09


class Ledger:
    """Attempted and failed operations, with a message for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(name)

    def add(self, attempted: int, failed: int, name: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(f"{name}: {failed} of {attempted} failed")


def import_program():
    """Import stssc from ./src of this checkout, or exit with a message."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stssc
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import stssc from {src}: {exc}")
    if Path(stssc.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: stssc imported from {stssc.__file__}, not from {src}")
    return stssc


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def numba_comparison():
    """numba vs numpy joint_argmin on a fixed c34 problem; None without numba."""
    import numpy as np
    from stssc import _kernels
    from stssc.decoder import enumerate_candidates
    from stssc.modem import get_constellation

    if not _kernels._HAVE_NUMBA:
        return None
    rng = np.random.default_rng(0)
    blocks, n, k = 4000, 3, 3
    xc = np.ascontiguousarray(enumerate_candidates(get_constellation("qpsk"), n) / np.sqrt(n))
    u = rng.normal(size=(blocks, n, k)) + 1j * rng.normal(size=(blocks, n, k))
    h = rng.normal(size=(blocks, n)) + 1j * rng.normal(size=(blocks, n))
    gram = np.ascontiguousarray(np.repeat(np.einsum("bs,bp->bsp", h, h.conj())[:, None], k, axis=1))
    out = {}
    results = {}
    for label, fn in (("numba", _kernels._joint_argmin_numba), ("numpy", _kernels._joint_argmin_numpy)):
        results[label] = fn(u, gram, xc, 2.0)     # warm-up, compiles the numba path
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn(u, gram, xc, 2.0)
            times.append(time.perf_counter() - t0)
        out[f"joint_argmin_{label}_ms"] = statistics.median(times) * 1e3
    out["identical"] = bool(np.array_equal(results["numba"], results["numpy"]))
    out["problem"] = f"c34 qpsk, {blocks} blocks"
    return out


def provenance(args, stssc) -> dict:
    import numpy
    from stssc import _kernels
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "numba": numba_version, "stssc": stssc.__version__,
        "kernel_path": "numba" if _kernels.numba_enabled() else "numpy",
        "thread_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS")},
        "numba_vs_numpy": numba_comparison(),
    }


def reference_loop() -> float:
    """CPU seconds of a fixed loop of numpy and Python work that does not use stssc.

    It mixes what the workloads spend their time on: random generators made
    afresh, numpy calls on arrays of a few elements, interpreter loops, and
    a Gram product over a few thousand 3x3 blocks.  On a shared host the
    processor's speed drifts by 20-30% over tens of seconds; the loop, run
    before every pass, measures that speed so that the end-to-end times can
    be normalised by it.
    """
    import numpy as np

    start = time.process_time()
    x = np.linspace(-1.0, 1.0, 64)
    a = np.arange(16 * 4 * 4).reshape(16, 4, 4) / 50.0 + 1j
    acc = 0.0
    for i in range(800):
        bits = np.random.default_rng(i).integers(0, 2, size=256)
        y = np.exp(1j * np.pi * bits[:64]) * x
        gram = np.einsum("bij,bkj->bik", a, a.conj())
        acc += float(np.abs(gram).argmin()) + float(np.abs(y).sum())
        for j in range(30):
            acc += j * 0.5
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.normal(size=(2000, 3, 3)) + 1j * rng.normal(size=(2000, 3, 3))
        gram = np.einsum("bij,bkj->bik", u, u.conj())
        acc += float(np.abs(gram).sum(axis=(1, 2)).argmin())
    if not np.isfinite(acc):
        raise RuntimeError("reference loop produced a non-finite sum")
    return time.process_time() - start


def run_passes(seed, seconds, ledger, body):
    """Call body(pass_seed) until ``seconds`` have passed (at least once); count failures."""
    from workloads import pass_seed

    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        try:
            body(pass_seed(seed, index))
        except Exception as exc:    # a failing pass is a failed operation, not a crash
            ledger.record(f"pass {index}: {exc!r}", False)
        index += 1


def setup_probes(args, ledger, report):
    """Normalised median CPU time of SETUP_PROBES fresh processes that only set the workload up."""
    from workloads import cpu_seconds

    walls, cpus, refs = [], [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for i in range(SETUP_PROBES):
        refs.append(reference_loop())
        t0, c0 = time.perf_counter(), cpu_seconds()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        ledger.record(f"setup probe {i}: exit {proc.returncode} {proc.stderr.strip()[-300:]}",
                      proc.returncode == 0)
    slowdown = statistics.fmean(refs) / REFERENCE_S
    report.append(f"info setup median over {SETUP_PROBES} processes, not normalised: "
                  f"wall {statistics.median(walls):.4f} s, CPU {statistics.median(cpus):.4f} s; "
                  f"reference loop slowdown {slowdown:.4f}")
    return statistics.median(cpus) / slowdown


def check_outputs(workload, tally, args, spec, ledger, report):
    """The workload's own checks and the BER comparison of the passes' tally."""
    from workloads import ber_verdicts

    tolerance = spec["ber_tolerance"]
    verdicts = workload.checks(args.seed) + ber_verdicts(
        tally, spec["references"], tolerance["z"], tolerance["min_expected_errors"])
    for name, ok in verdicts:
        ledger.record(name, ok)
        report.append(f"check {'ok  ' if ok else 'FAIL'} {name}")
    digest = getattr(workload, "digest", None)
    if digest is not None:
        matches = int(digest == spec["paper_sweep_csv_sha256"])
        report.append(f"info paper-sweep CSV digest matches the seed commit: {matches}")


def measure(workload, args, spec, ledger, report) -> dict:
    """Untraced passes for the end-to-end metrics, in normalised CPU seconds.

    Before each pass the reference loop runs.  The slowdown of a run is the
    mean reference-loop CPU time over REFERENCE_S; pass CPU times divided by
    it are normalised CPU seconds.  Every metric is a mean over the whole run
    (total work over total time): the spread left after CPU time is a drift
    of processor speed over seconds, not outlying passes, and a mean
    averages more of it than a median does.
    """
    from workloads import add_tally

    walls, cpus, refs, bits, blocks, tally = [], [], [], [], [], {}

    def body(seed):
        ref = reference_loop()
        res = workload.run_pass(seed)
        ledger.add(res.attempted, res.failed, f"pass seed {seed}")
        add_tally(tally, res.tally)
        refs.append(ref)
        walls.append(res.wall_s)
        cpus.append(res.cpu_s)
        bits.append(res.payload_bits)
        blocks.append(res.blocks)

    run_passes(args.seed, args.seconds, ledger, body)
    rss = peak_rss_mb()     # before the checks and probes start their own processes
    check_outputs(workload, tally, args, spec, ledger, report)
    setup_s = setup_probes(args, ledger, report)
    report.append(f"info {len(cpus)} timed passes")
    if not cpus:
        return {}
    slowdown = statistics.fmean(refs) / REFERENCE_S
    norm_cpu = sum(cpus) / slowdown
    report.append(f"info per pass, not normalised: wall median {statistics.median(walls):.4f} s, "
                  f"CPU mean {statistics.fmean(cpus):.4f} s; reference loop slowdown {slowdown:.4f}")
    return {
        "norm_cpu_s": norm_cpu / len(cpus),
        "payload_bits_per_norm_cpu_s": sum(bits) / norm_cpu,
        "blocks_per_norm_cpu_s": sum(blocks) / norm_cpu,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }


def _percentile_ms(durations, q) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def trace(workload, args, spec, ledger, report) -> dict:
    """Alternate untraced and traced passes for the per-layer metrics."""
    from tracing import SpanStats, Tracer, combined_spans, summarize, traced
    from workloads import add_tally

    plain, plain_cpu, traced_walls, traced_cpu, tracers, tally = [], [], [], [], [], {}
    parallel_walls, pool_counts = [], []

    def body(seed):
        # alternate which of the pair runs first, so order effects cancel in the overhead ratio
        for use_tracer in (False, True) if len(tracers) % 2 == 0 else (True, False):
            if use_tracer:
                tracer = Tracer()
                with traced(tracer):
                    res = workload.run_pass(seed, tracer=tracer, workers=1)
                add_tally(tally, res.tally)     # the other passes repeat this seed's inputs
                traced_walls.append(res.wall_s)
                traced_cpu.append(res.cpu_s)
                tracers.append(tracer)
            else:
                res = workload.run_pass(seed, workers=1)
                plain.append(res.wall_s)
                plain_cpu.append(res.cpu_s)
            ledger.add(res.attempted, res.failed, f"pass seed {seed}, traced={use_tracer}")
        if workload.workers > 1:
            res = workload.run_pass(seed)
            ledger.add(res.attempted, res.failed, f"parallel pass seed {seed}")
            parallel_walls.append(res.wall_s)
            counter = Tracer()
            with traced(counter):
                res = workload.run_pass(seed, tracer=counter)
            ledger.add(res.attempted, res.failed, f"traced parallel pass seed {seed}")
            pool_counts.append(counter.counts["harness.pool_starts"])

    run_passes(args.seed, args.seconds, ledger, body)
    check_outputs(workload, tally, args, spec, ledger, report)
    if not tracers:
        return {}

    spans = combined_spans(tracers)
    merged = summarize(spans)
    counts = sum((tracer.counts for tracer in tracers), Counter())
    dump = {"workload": args.workload, "seed": args.seed, "counts": dict(tracers[0].counts),
            "spans": [[s.name, s.start, s.end, s.parent, s.context] for s in tracers[0].spans]}
    (BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(dump))

    n = len(tracers)
    traced_wall = sum(traced_walls) / n

    def total(name):
        return merged[name].total_s / n if name in merged else 0.0

    def self_time(name):
        return merged[name].self_s / n if name in merged else 0.0

    def calls(name):
        return merged[name].calls / n if name in merged else 0.0

    def count(name):
        return counts[name] / n

    for label in sorted({span.context for span in spans} - {""}):
        times = summarize(spans, label)
        wall = times.pop("section").total_s
        shares = sorted(((st.total_s / wall, name) for name, st in times.items()), reverse=True)
        report.append(f"info share of {label} time (inclusive): "
                      + ", ".join(f"{name} {share:.1%}" for share, name in shares if share >= 0.01))

    evals = count("kernels.joint_argmin.cand_evals")
    sets = merged.get("batch.simulate_packet_set", SpanStats())
    report.append(f"info {n} traced passes, {len(sets.durations)} packet-set samples")
    return {
        "kernels.joint_argmin.s": total("kernels.joint_argmin"),
        "kernels.joint_argmin.cand_evals": evals,
        "kernels.joint_argmin.ns_per_eval":
            total("kernels.joint_argmin") * 1e9 / evals if evals else 0.0,
        "kernels.joint_argmin.bytes_computed": count("kernels.joint_argmin.bytes_computed"),
        "kernels.joint_argmin.share": total("kernels.joint_argmin") / traced_wall,
        "kernels.afost_argmin.s": total("kernels.afost_argmin"),
        "kernels.afost_argmin.cand_evals": count("kernels.afost_argmin.cand_evals"),
        "batch.stssc_decode_batch.self_s": self_time("batch.stssc_decode_batch"),
        "batch.stssc_decode_batch.share": total("batch.stssc_decode_batch") / traced_wall,
        "batch.simulate_packet_set.calls": calls("batch.simulate_packet_set"),
        "batch.simulate_packet_set.samples": len(sets.durations),
        "batch.simulate_packet_set.p50_ms": _percentile_ms(sets.durations, 50),
        "batch.simulate_packet_set.p99_ms": _percentile_ms(sets.durations, 99),
        "batch.simulate_packet_set.self_s": self_time("batch.simulate_packet_set"),
        "modem.modulate.s": total("modem.modulate"),
        "modem.demap_hard.s": total("modem.demap_hard"),
        "decoder.enumerate_candidates.calls": calls("decoder.enumerate_candidates"),
        "decoder.enumerate_candidates.s": total("decoder.enumerate_candidates"),
        "designs.build_design.calls": calls("designs.build_design"),
        "designs.build_design.s": total("designs.build_design"),
        "harness.self_s": total("harness.run_sweep") - total("batch.simulate_packet_set"),
        "harness.pool_starts": statistics.median(pool_counts) if pool_counts else 0,
        "harness.parallel_efficiency":
            statistics.median(plain) / (workload.workers * statistics.median(parallel_walls))
            if parallel_walls else 0.0,
        "cli.emit_csv.s": total("cli.emit_csv"),
        "schemes.stssc_pipeline.s": total("schemes.stssc_pipeline"),
        "channel.draw_channel.s": total("channel.draw_channel"),
        "decoder.matched_filter.s": total("decoder.matched_filter"),
        "decoder.joint_ml_decode_slot.s": total("decoder.joint_ml_decode_slot"),
        "decoder.brute_force_oracle.s": total("decoder.brute_force_oracle"),
        "trace_overhead_ratio": statistics.median(traced_cpu) / statistics.median(plain_cpu),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set the workload up (one setup_s sample), then exit")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    stssc = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; valid: {', '.join(workloads.WORKLOADS)}")
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        workload = workloads.make(args.workload, workdir)
        workload.setup()
        if args.setup_probe:
            return 0
        ledger, report = Ledger(), []
        if args.trace:
            values, declared = trace(workload, args, spec, ledger, report), bench["per_layer"]
        else:
            values, declared = measure(workload, args, spec, ledger, report), bench["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args, stssc)
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            ledger.record(f"metric {name} not measured", False)
            continue
        metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}
        print(f"{name:<40} {float(values[name]):>16.6g} {entry['unit']}")
    unknown = set(values) - {entry["name"] for entry in declared}
    if unknown:
        sys.exit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    for line in report:
        print(line)
    for message in ledger.messages:
        print(f"failure: {message}", file=sys.stderr)
    print(f"failed_ops_ratio {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
