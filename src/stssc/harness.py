"""Monte Carlo experiment driver: configs, sweeps, accounting, CSV emission."""

import contextlib
import csv
import ctypes
import functools
import hashlib
import numbers
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, fields, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .batch import SCHEMES, SLOT_RULES, blocks_per_set, simulate_packet_set
from .channel import FADING_MODELS
from .decoder import check_candidate_count
from .designs import build_design
from .errors import ConfigurationError
from .modem import KAPPA_MODES, check_compatible, get_constellation

SYMBOL_RATE = 20e6          # 20 MHz bandwidth, one symbol slot per Hz-second
MAX_SNR_DB = 3000.0         # |SNR| bound: 10^(snr/10) over- or underflows a float near +-3100 dB
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3     # glibc's mallopt parameter numbers (malloc.h)
MAX_PACKETS = 1 << 32       # set indices enter the seed hash as one 32-bit word each
# packet sets whose seeds are hashed at once and which one simulate_packet_set
# call takes: a few hundred kB of hash arrays and about 3 MB of generators,
# however many sets a chunk holds
SEEDS_PER_HASH = 4096

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


CSV_HEADER = [f.name for f in fields(SimRecord)]

# the integer fields (annotated int or int | None) and the values each takes;
# a bool is no integer here
INT_FIELDS = {f.name: numbers.Integral if f.type is int else (numbers.Integral, type(None))
              for f in fields(SimConfig) if f.type in (int, int | None)}


def _check_snr(name: str, values) -> None:
    for s in values:
        if isinstance(s, bool) or not isinstance(s, numbers.Real):
            raise ConfigurationError(f"{name} must be a real number, got {s!r}")
        if not abs(s) <= MAX_SNR_DB:        # nan and +-inf too
            raise ConfigurationError(f"SNR values must be finite and within +-{MAX_SNR_DB:g} dB")


def _normalised(cfg: SimConfig) -> SimConfig:
    """cfg with numpy integers and bools as Python ones, so that config_hash hashes them alike."""
    ints = {name: int(v) for name in INT_FIELDS
            if isinstance(v := getattr(cfg, name), numbers.Integral)}
    noiseless = bool(cfg.noiseless) if isinstance(cfg.noiseless, np.bool_) else cfg.noiseless
    return replace(cfg, noiseless=noiseless, **ints)


def validate(config: SimConfig) -> SimConfig:
    """The resolved, normalised config, or a ConfigurationError naming the bad field."""
    for name, kinds in INT_FIELDS.items():
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if not isinstance(config.noiseless, (bool, np.bool_)):
        raise ConfigurationError(f"noiseless must be a bool, got {config.noiseless!r}")
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
    if cfg.packets > MAX_PACKETS:
        raise ConfigurationError(f"at most {MAX_PACKETS} packets per SNR point")
    if cfg.packet_bits < 1:
        raise ConfigurationError("packet length must be positive")
    if isinstance(cfg.snr_db_list, (str, bytes)) or not np.iterable(cfg.snr_db_list):
        raise ConfigurationError(f"snr_db_list must be a sequence of SNRs, got {cfg.snr_db_list!r}")
    snr_db_list = tuple(cfg.snr_db_list)
    if not snr_db_list:
        raise ConfigurationError("SNR list must be nonempty")
    _check_snr("snr_db_list", snr_db_list)
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
    check_candidate_count(constellation, cfg.sources)
    return _normalised(replace(cfg, snr_db_list=snr_db_list))


def config_hash(config: SimConfig) -> str:
    """Stable short hash of the result-determining config fields, as validate normalises them.

    workers is excluded: it must not affect results.
    """
    cfg = _normalised(config.resolved())
    fields = asdict(cfg)
    fields.pop("workers")
    fields["snr_db_list"] = [float(s) for s in fields["snr_db_list"]]
    blob = repr(sorted(fields.items())).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _point_seed(config: SimConfig, point_index: int) -> int:
    return int(np.random.SeedSequence([config.seed, point_index]).generate_state(1)[0])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), whose output
# numpy keeps stable across releases: a pool of 4 uint32 words, mix_entropy's
# hashmix and mix, then generate_state's output hash; each hash constant chain
# is (init, mult), its k-th entry init * mult**k mod 2**32
_CHAIN_A = (np.uint32(0x43B0D7E5), np.uint32(0x931E8875))
_CHAIN_B = (np.uint32(0x8B51F9DD), np.uint32(0x58F38DED))
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_SHIFT = np.uint32(16)


def _hashmix(words, chain, k: int, n: int) -> np.ndarray:
    """numpy's hashmix of n rows of words, row i with the chain's entries k+i and k+i+1."""
    init, mult = chain
    consts = (init * mult ** np.arange(k, k + n + 1, dtype=np.uint32))[:, None]
    hashed = words ^ consts[:-1]
    hashed *= consts[1:]
    hashed ^= hashed >> _SHIFT
    return hashed


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's mix of uint32 arrays."""
    out = x * np.uint32(_MIX_MULT_L)
    out -= y * np.uint32(_MIX_MULT_R)
    out ^= out >> _SHIFT
    return out


def _uint32_words(n: int) -> list[int]:
    """n as numpy's SeedSequence reads an integer: 32-bit words, least significant first."""
    if n < 0:
        raise ValueError(f"seed words need a nonnegative integer, got {n}")
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _set_seeds(seed: int, point_index: int, set_indices) -> np.ndarray:
    """The sets' PCG64 seeds, (S, 4) uint64.

    Row i is SeedSequence([seed, point_index, set_indices[i]]).generate_state(4, np.uint64).
    The words of seed and point_index are a prefix every set shares and each
    set index (below 2**32) is one more word, so the hash runs once over
    (., S) arrays instead of once per set.  Every step works on arrays, whose
    uint32 arithmetic wraps silently (numpy's scalars warn).
    """
    index = np.asarray(set_indices, dtype=np.uint32)
    entropy = _uint32_words(int(seed)) + _uint32_words(int(point_index)) + [index]
    # mix_entropy: the first 4 words, zero-padded, hashed into the pool ...
    pool = np.zeros((_POOL, len(index)), dtype=np.uint32)
    for i, word in enumerate(entropy[:_POOL]):
        pool[i] = word
    pool = _hashmix(pool, _CHAIN_A, 0, _POOL)
    # ... each pool word, hashed, mixed into each other one ...
    for src in range(_POOL):
        others = [dst for dst in range(_POOL) if dst != src]
        hashed = _hashmix(pool[src], _CHAIN_A, _POOL + len(others) * src, len(others))
        pool[others] = _mix(pool[others], hashed)
    # ... and each word past the pool mixed into every pool word
    for j, word in enumerate(entropy[_POOL:]):
        pool = _mix(pool, _hashmix(word, _CHAIN_A, _POOL * (_POOL + j), _POOL))
    # generate_state: 8 output words, hashed from the pool taken twice round
    state = _hashmix(np.concatenate((pool, pool)), _CHAIN_B, 0, 2 * _POOL)
    # generate_state's uint64 words: pairs of uint32 words, the first the low half
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _SeedRow(ISeedSequence):
    """A seed sequence that hands its bit generator one row of _set_seeds.

    PCG64 asks its seed sequence for generate_state(4, np.uint64) once, and
    then seeds itself from those words.
    """

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _simulate_sets(cfg: SimConfig, snr_db: float, point_index: int,
                   sets: range) -> tuple[int, int]:
    """Run a range of packet sets; returns their (bit_errors, packet_errors) at destination 0.

    The seeds of up to SEEDS_PER_HASH consecutive sets are hashed at once
    (_set_seeds), and those sets go to one simulate_packet_set call, so that
    they share its fixed per-call costs; only their indices are ever held as
    an array.  Each set keeps its own PCG64 generator, seeded as
    default_rng(SeedSequence([seed, point_index, set])) would be, so how the
    sets are split between calls does not change the totals.  Serial runs and
    pool workers both come through here, so every process that simulates
    first takes the heap policy of _raise_malloc_thresholds.
    """
    _raise_malloc_thresholds()
    design = build_design(cfg.code)
    constellation = get_constellation(cfg.mod)
    rho = 10.0 ** (snr_db / 10.0)
    sigma2 = 0.0 if cfg.noiseless else 1.0
    bit_errors = packet_errors = 0
    for lo in range(sets.start, sets.stop, SEEDS_PER_HASH):
        indices = np.arange(lo, min(lo + SEEDS_PER_HASH, sets.stop), dtype=np.uint32)
        rngs = [np.random.Generator(np.random.PCG64(_SeedRow(row)))
                for row in _set_seeds(cfg.seed, point_index, indices)]
        errors = simulate_packet_set(cfg.scheme, design, constellation, cfg.sources, rho, sigma2,
                                     cfg.fading, cfg.normalization, cfg.packet_bits, rngs)
        bit_errors += int(errors.sum())
        packet_errors += int(np.count_nonzero(errors))
    return bit_errors, packet_errors


def _raise_malloc_thresholds() -> None:
    """Let the simulating process keep its freed heap instead of returning it to the kernel.

    By default glibc gives the top of the heap back once the free space
    there passes its trim threshold, so a process whose calls each allocate
    and free a few megabytes of temporaries takes a minor page fault on
    every page again on the next call.  The trim threshold is raised to
    256 MiB.  Setting it also stops glibc from raising its mmap threshold
    as it sees large blocks freed, so that threshold is set too, to the
    32 MiB where glibc's own adjustment stops on 64-bit systems; otherwise
    every array over 128 KiB, such as a long packet set's draws, would be
    mapped and unmapped on each call.  The settings stay for the rest of the
    process, so a library caller keeps its freed heap after a run too.
    Does nothing where the C library is not glibc.
    """
    mallopt = _mallopt(ctypes.CDLL)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 28)


@functools.lru_cache(maxsize=1)
def _mallopt(loader):
    """The C library's mallopt, loaded through loader (ctypes.CDLL) once per process, or None.

    Loading the library builds a ctypes class each time, so the handle is kept.
    """
    try:
        mallopt = loader("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt


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
    min(workers, packets) ranges of sets, all of them are queued up front, and
    each point's totals are folded in point order.  Totals are integer sums of
    per-set results seeded by (seed, point, set), so records do not depend
    on the worker count.
    """
    if cfg.workers <= 1:
        totals = [_simulate_sets(cfg, snr_db, i, range(cfg.packets)) for i, snr_db in points]
    else:
        n = min(cfg.workers, cfg.packets)
        chunks = [range(cfg.packets * k // n, cfg.packets * (k + 1) // n) for k in range(n)]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
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


def _record(cfg: SimConfig, snr_db: float, point_index: int, errors) -> SimRecord:
    """A point's record from its (bit_errors, packet_errors); every set costs equal slots."""
    bit_errors, packet_errors = errors
    d = build_design(cfg.code)
    per_block = cfg.phases_override or SLOT_RULES[cfg.scheme](cfg.sources, d.M, d.K, d.T)
    bits_total = cfg.packets * cfg.packet_bits
    slots_total = (cfg.packets * per_block
                   * blocks_per_set(d, get_constellation(cfg.mod), cfg.packet_bits))
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
    """Simulate one SNR point: `packets` packet sets, errors counted at destination 0.

    point_index (a nonnegative integer) seeds the point as its place in a sweep would.
    """
    cfg = validate(config)
    _check_snr("snr_db", [snr_db])
    if (isinstance(point_index, bool) or not isinstance(point_index, numbers.Integral)
            or point_index < 0):
        raise ConfigurationError(f"point index must be a nonnegative integer, got {point_index!r}")
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
    """The rows of a CSV as dicts, blank lines skipped.

    A missing required column, or a row with more or fewer cells than the
    header, is a ConfigurationError naming the file (and the row's line).
    """
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in required if name not in header]
        if missing:
            raise ConfigurationError(f"{os.fspath(path)} has no {', '.join(missing)} column")
        rows = []
        for cells in filter(None, reader):
            if len(cells) != len(header):
                raise ConfigurationError(
                    f"{os.fspath(path)}:{reader.line_num}: {len(cells)} cells under a "
                    f"{len(header)}-column header"
                )
            rows.append(dict(zip(header, cells)))
        return rows


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
