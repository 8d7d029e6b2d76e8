"""Monte Carlo experiment driver: configs, sweeps, accounting, CSV emission."""

import contextlib
import csv
import hashlib
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import batch
from .batch import SCHEMES, blocks_per_set, simulate_packet_set
from .channel import FADING_MODELS
from .decoder import MAX_CANDIDATES
from .designs import build_design
from .errors import ConfigurationError
from .modem import KAPPA_MODES, check_compatible, get_constellation

SYMBOL_RATE = 20e6          # 20 MHz bandwidth, one symbol slot per Hz-second
MAX_SNR_DB = 3000.0         # |SNR| bound: 10^(snr/10) over- or underflows a float near +-3100 dB
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3     # glibc's mallopt parameter numbers (malloc.h)

CSV_HEADER = [
    "snr_db", "ber", "per", "throughput_bps", "bits_total", "bit_errors",
    "packets_total", "packet_errors", "slots_total", "seed", "config_hash",
]


@dataclass(frozen=True)
class SimConfig:
    scheme: str = "stssc"
    code: str = "alamouti"
    sources: int | None = None
    relays: int | None = None
    mod: str | None = None
    fading: str = "unit-mag"
    normalization: str = "perslot"
    snr_db_list: tuple = tuple(float(s) for s in range(0, 31, 2))
    packets: int = 2000
    packet_bits: int = 1000
    seed: int = 0
    workers: int = 1
    noiseless: bool = False
    phases_override: int | None = None      # slots charged per block, overriding the scheme rule
    output_path: str | None = None

    def resolved(self) -> "SimConfig":
        """Fill code-dependent defaults: M = design columns, N = M, mod per code."""
        design = build_design(self.code)
        relays = self.relays if self.relays is not None else design.M
        sources = self.sources if self.sources is not None else relays
        mod = self.mod if self.mod is not None else ("bpsk" if design.real_only else "qpsk")
        return replace(self, relays=relays, sources=sources, mod=mod)


@dataclass(frozen=True)
class SimRecord:
    snr_db: float
    ber: float
    per: float
    throughput_bps: float
    bits_total: int
    bit_errors: int
    packets_total: int
    packet_errors: int
    slots_total: int
    seed: int
    config_hash: str


def _check_snr(snr_db_list) -> None:
    if not all(np.isfinite(s) for s in snr_db_list):
        raise ConfigurationError("SNR values must be finite")
    if max(abs(s) for s in snr_db_list) > MAX_SNR_DB:
        raise ConfigurationError(f"SNR values must lie within +-{MAX_SNR_DB:g} dB")


def validate(config: SimConfig) -> SimConfig:
    cfg = config.resolved()
    if cfg.scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {cfg.scheme!r}; valid: {', '.join(SCHEMES)}")
    design = build_design(cfg.code)
    constellation = get_constellation(cfg.mod)
    check_compatible(constellation, design.real_only)
    if cfg.relays != design.M:
        raise ConfigurationError(
            f"code {cfg.code!r} serves exactly {design.M} relays, got --relays {cfg.relays}"
        )
    if cfg.sources < 1:
        raise ConfigurationError("need at least one source")
    if cfg.packets < 1:
        raise ConfigurationError("need at least one packet")
    if cfg.packet_bits < 1:
        raise ConfigurationError("packet length must be positive")
    if not cfg.snr_db_list:
        raise ConfigurationError("SNR list must be nonempty")
    _check_snr(cfg.snr_db_list)
    if cfg.seed < 0:
        raise ConfigurationError("seed must be nonnegative")
    if cfg.workers < 1:
        raise ConfigurationError("need at least one worker")
    if cfg.fading not in FADING_MODELS:
        raise ConfigurationError(f"unknown fading model {cfg.fading!r}")
    if cfg.normalization not in KAPPA_MODES:
        raise ConfigurationError(f"unknown normalization {cfg.normalization!r}")
    if cfg.phases_override is not None and cfg.phases_override < 1:
        raise ConfigurationError("phases override must be a positive slot count")
    if constellation.size**cfg.sources > MAX_CANDIDATES:
        raise ConfigurationError(
            f"candidate space {constellation.size}^{cfg.sources} too large; "
            "reduce sources or constellation order"
        )
    return cfg


def config_hash(config: SimConfig) -> str:
    """Stable short hash of the result-determining config fields.

    workers and output_path are excluded: they must not affect results.
    """
    cfg = config.resolved()
    fields = asdict(cfg)
    fields.pop("workers")
    fields.pop("output_path")
    fields["snr_db_list"] = [float(s) for s in fields["snr_db_list"]]
    blob = repr(sorted(fields.items())).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _point_seed(config: SimConfig, point_index: int) -> int:
    return int(np.random.SeedSequence([config.seed, point_index]).generate_state(1)[0])


def _simulate_sets(cfg: SimConfig, snr_db: float, point_index: int,
                   set_indices) -> tuple[int, int, int, int]:
    """Run a range of packet sets; returns (bit_errors, bits, packet_errors, slots).

    Consecutive sets are simulated in groups of at most batch.BLOCK_BUDGET
    blocks (at least one set): enough sets to spread simulate_packet_set's
    fixed per-call costs.  Each set keeps its own generator, so grouping does
    not change the totals.
    """
    design = build_design(cfg.code)
    constellation = get_constellation(cfg.mod)
    rho = 10.0 ** (snr_db / 10.0)
    sigma2 = 0.0 if cfg.noiseless else 1.0
    group = max(1, batch.BLOCK_BUDGET // blocks_per_set(design, constellation, cfg.packet_bits))
    be = bits = pe = slots = 0
    for start in range(0, len(set_indices), group):
        rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, point_index, i]))
                for i in set_indices[start:start + group]]
        res = simulate_packet_set(
            cfg.scheme, design, constellation, cfg.sources, cfg.relays,
            rho, sigma2, cfg.fading, cfg.normalization, cfg.packet_bits, rngs,
            slots_per_block=cfg.phases_override,
        )
        be += res.bit_errors
        bits += res.payload_bits
        pe += res.packet_error
        slots += res.slots
    return be, bits, pe, slots


def _raise_malloc_thresholds() -> None:
    """Pool initializer: let a worker keep its freed heap instead of returning it to the kernel.

    By default glibc gives the top of the heap back once the free space
    there passes its trim threshold, so a worker whose calls each allocate
    and free a few megabytes of temporaries takes a minor page fault on
    every page again on the next call.  The trim threshold is raised to
    256 MiB.  Setting it also stops glibc from raising its mmap threshold
    as it sees large blocks freed, so that threshold is set too, to the
    32 MiB where glibc's own adjustment stops on 64-bit systems; otherwise
    every array over 128 KiB, such as a long packet set's draws, would be
    mapped and unmapped on each call.
    Does nothing where the C library is not glibc.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 28)


@contextlib.contextmanager
def _sigint_held():
    """Hold SIGINT back while the block runs, then deliver it to its own handler.

    A KeyboardInterrupt raised inside ProcessPoolExecutor.submit can leave
    one of the pool's queue locks held, and the pool's shutdown then waits
    forever for its manager thread.  Only the main thread runs signal
    handlers; elsewhere the block runs as it is.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    held = []
    previous = signal.signal(signal.SIGINT, lambda *_: held.append(True))
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)
    if held:
        signal.raise_signal(signal.SIGINT)


def _run_points(cfg: SimConfig, points) -> list[SimRecord]:
    """Simulate each (point_index, snr_db) of a validated config, in order.

    With workers > 1 one pool serves every point: each point is cut into
    min(workers, packets) chunks, all chunks are queued up front, and each
    point's totals are folded in point order; each worker first raises its
    malloc thresholds (_raise_malloc_thresholds).  Totals are integer sums of
    per-set results seeded by (seed, point, set), so records do not depend
    on the worker count.
    """
    if cfg.workers <= 1:
        totals = [_simulate_sets(cfg, snr_db, i, range(cfg.packets)) for i, snr_db in points]
    else:
        chunks = np.array_split(np.arange(cfg.packets), min(cfg.workers, cfg.packets))
        with ProcessPoolExecutor(max_workers=len(chunks),
                                 initializer=_raise_malloc_thresholds) as pool:
            try:
                with _sigint_held():
                    futures = [[pool.submit(_simulate_sets, cfg, snr_db, i, c) for c in chunks]
                               for i, snr_db in points]
                totals = [tuple(map(sum, zip(*(f.result() for f in fs)))) for fs in futures]
            except BaseException:
                # a failed or interrupted sweep must not wait for the rest of the queue
                pool.shutdown(cancel_futures=True)
                raise
    return [_record(cfg, snr_db, i, t) for (i, snr_db), t in zip(points, totals)]


def _record(cfg: SimConfig, snr_db: float, point_index: int, totals) -> SimRecord:
    bit_errors, bits_total, packet_errors, slots_total = totals
    correct_bits = (cfg.packets - packet_errors) * cfg.packet_bits
    return SimRecord(
        snr_db=float(snr_db),
        ber=bit_errors / bits_total,
        per=packet_errors / cfg.packets,
        throughput_bps=correct_bits / slots_total * SYMBOL_RATE,
        bits_total=bits_total,
        bit_errors=bit_errors,
        packets_total=cfg.packets,
        packet_errors=packet_errors,
        slots_total=slots_total,
        seed=_point_seed(cfg, point_index),
        config_hash=config_hash(cfg),
    )


def run_point(config: SimConfig, snr_db: float, point_index: int = 0) -> SimRecord:
    """Simulate one SNR point: `packets` packet sets, errors counted at destination 0."""
    cfg = validate(config)
    _check_snr([snr_db])
    return _run_points(cfg, [(point_index, snr_db)])[0]


def run_sweep(config: SimConfig) -> list[SimRecord]:
    cfg = validate(config)
    return _run_points(cfg, list(enumerate(cfg.snr_db_list)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(records, path, extra_stderr: bool = False) -> None:
    """Write records atomically; byte-identical across runs with the same seed."""
    header = list(CSV_HEADER)
    if extra_stderr:
        header += ["ber_stderr", "per_stderr"]
    lines = [",".join(header)]
    for rec in records:
        row = [_fmt(getattr(rec, name)) for name in CSV_HEADER]
        if extra_stderr:
            row.append(_fmt(_binomial_stderr(rec.ber, rec.bits_total)))
            row.append(_fmt(_binomial_stderr(rec.per, rec.packets_total)))
        lines.append(",".join(row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_atomic(path, data: str) -> None:
    """Write data to path through path.tmp, so path is either complete or untouched."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _binomial_stderr(p: float, n: int) -> float:
    return float(np.sqrt(p * (1.0 - p) / n))


def read_csv(path, required=()) -> list[dict]:
    """The rows of a CSV as dicts; a missing required column is a ConfigurationError."""
    with open(path) as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in required if name not in (reader.fieldnames or ())]
        if missing:
            raise ConfigurationError(f"{os.fspath(path)} has no {', '.join(missing)} column")
        return [dict(row) for row in reader]


def compare_runs(paths, out_path) -> list[list[str]]:
    """Overlay several runs on a shared SNR grid into one wide plot-data table.

    Each run is labelled by its file name without the extension; two inputs
    with the same label are a ConfigurationError, as their columns would clash.
    """
    runs, label_paths = [], {}
    for path in paths:
        label = os.path.splitext(os.path.basename(path))[0]
        if label in label_paths:
            raise ConfigurationError(
                f"{label_paths[label]} and {os.fspath(path)} share the label {label!r}"
            )
        label_paths[label] = os.fspath(path)
        runs.append((label, read_csv(path, required=("snr_db", "ber", "throughput_bps"))))
    grids = [[row["snr_db"] for row in rows] for _, rows in runs]
    ref = grids[0]
    for (label, _), grid in zip(runs[1:], grids[1:]):
        if grid != ref:
            diff = sorted(set(ref).symmetric_difference(grid), key=float)
            raise ConfigurationError(
                f"SNR grid of {label!r} differs from {runs[0][0]!r} at points: {', '.join(diff)}"
            )
    header = (
        ["snr_db"]
        + [f"{label}_ber" for label, _ in runs]
        + [f"{label}_throughput_bps" for label, _ in runs]
    )
    table = [header]
    for i, snr in enumerate(ref):
        row = [snr]
        row += [rows[i]["ber"] for _, rows in runs]
        row += [rows[i]["throughput_bps"] for _, rows in runs]
        table.append(row)
    if out_path is not None:
        _write_atomic(out_path, "\n".join(",".join(map(str, row)) for row in table) + "\n")
    return table
