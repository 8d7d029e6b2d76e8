import ctypes
import multiprocessing
import os
import signal
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stssc import cli, harness
from stssc.batch import SCHEMES
from stssc.channel import FADING_MODELS
from stssc.designs import DESIGN_NAMES, build_design
from stssc.errors import ConfigurationError
from stssc.harness import (
    CSV_HEADER,
    MAX_SNR_DB,
    SimConfig,
    compare_runs,
    config_hash,
    emit_csv,
    read_csv,
    run_point,
    run_sweep,
    validate,
)
from stssc.modem import CONSTELLATION_NAMES, KAPPA_MODES, get_constellation

SMALL = dict(packets=30, packet_bits=60, snr_db_list=(0.0, 10.0))


def test_resolved_defaults():
    cfg = SimConfig(code="c34").resolved()
    assert cfg.relays == 3 and cfg.sources == 3 and cfg.mod == "qpsk"
    cfg = SimConfig(code="c44").resolved()
    assert cfg.relays == 4 and cfg.sources == 4 and cfg.mod == "bpsk"


def test_validate_rejects_bad_configs():
    with pytest.raises(ConfigurationError):
        validate(SimConfig(scheme="nope"))
    with pytest.raises(ConfigurationError):
        validate(SimConfig(code="alamouti", relays=3))
    with pytest.raises(ConfigurationError):
        validate(SimConfig(code="c44", mod="qpsk"))
    with pytest.raises(ConfigurationError):
        validate(SimConfig(packets=0))
    with pytest.raises(ConfigurationError):
        validate(SimConfig(packets=2**32 + 1))  # a set index is one 32-bit word of its seed
    with pytest.raises(ConfigurationError):
        validate(SimConfig(snr_db_list=()))
    with pytest.raises(ConfigurationError):
        validate(SimConfig(snr_db_list=(np.inf,)))
    with pytest.raises(ConfigurationError):
        validate(SimConfig(snr_db_list=(10.0, MAX_SNR_DB + 1)))    # 10^(snr/10) overflows
    with pytest.raises(ConfigurationError):
        validate(SimConfig(snr_db_list=(-1e300,), noiseless=True))  # ... or underflows to 0
    with pytest.raises(ConfigurationError):
        validate(SimConfig(seed=-1))
    for workers in (0, -5):
        with pytest.raises(ConfigurationError):
            validate(SimConfig(workers=workers))
    with pytest.raises(ConfigurationError):
        validate(SimConfig(fading="nakagami"))
    with pytest.raises(ConfigurationError):
        validate(SimConfig(sources=11))        # 4^11 candidates
    # "false" would run noiseless; 0 and None would each get their own config_hash
    for noiseless in ("false", 0, 1, None):
        with pytest.raises(ConfigurationError, match="noiseless must be a bool"):
            validate(SimConfig(noiseless=noiseless))
    for snr_db_list in (("x",), (None,), (True,), (0.0, "3"), (1j,)):
        with pytest.raises(ConfigurationError, match="snr_db_list must be a real number"):
            validate(SimConfig(snr_db_list=snr_db_list))
    # a scalar, a 0-d array or a string is no SNR list
    for snr_db_list in (10.0, np.float64(10.0), np.array(10.0), "10", None):
        with pytest.raises(ConfigurationError, match="snr_db_list must be a sequence"):
            validate(SimConfig(snr_db_list=snr_db_list))
    # a list or an array comes back as a tuple of its values, so the config is hashable
    for snr_db_list in ([0.0, 10.0], np.array([0.0, 10.0])):
        cfg = validate(SimConfig(snr_db_list=snr_db_list))
        assert type(cfg.snr_db_list) is tuple and cfg.snr_db_list == (0.0, 10.0)
        hash(cfg)
    # single-point SNR list is allowed, and so are 2**32 packets, numpy integers
    # and bools, which validate hands back as Python ones
    validate(SimConfig(snr_db_list=(10.0,)))
    validate(SimConfig(packets=2**32))
    cfg = validate(SimConfig(packets=np.int64(3), seed=np.uint64(2**63), workers=np.int32(2),
                             noiseless=np.False_, phases_override=np.int8(4)))
    assert [type(v) for v in (cfg.packets, cfg.seed, cfg.workers, cfg.noiseless,
                              cfg.phases_override)] == [int, int, int, bool, int]
    assert cfg == validate(SimConfig(packets=3, seed=2**63, workers=2, phases_override=4))


def test_run_point_rejects_bad_snr():
    # validate's SNR rules hold for run_point's own SNR too
    cfg = SimConfig(packets=2, packet_bits=20)
    for snr_db in (np.nan, np.inf, -np.inf, MAX_SNR_DB + 1, 5000.0, -5000.0, 10**400):
        with pytest.raises(ConfigurationError, match="must be finite and within"):
            run_point(cfg, snr_db)
    for snr_db in ("3", None, True, np.True_, 1j):
        with pytest.raises(ConfigurationError, match="snr_db must be a real number"):
            run_point(cfg, snr_db)


def test_huge_source_counts_are_rejected_without_forming_the_candidate_count(tmp_path):
    # 4^(10^12) would need 250 GB to form; validate and the CLI reject the
    # count without forming it, in milliseconds
    for sources in (10**12, 10**100):
        t0 = time.perf_counter()
        with pytest.raises(ConfigurationError, match="too large"):
            validate(SimConfig(sources=sources))
        assert time.perf_counter() - t0 < 0.1
    assert cli.main(["run", "--sources", str(10**12), "-o", str(tmp_path / "x.csv")]) == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("name", ["sources", "relays", "packets", "packet_bits", "seed", "workers",
                                  "phases_override"])
def test_validate_rejects_non_integer_values_before_simulating(monkeypatch, name):
    # a float, even a whole one, a string or a bool in an integer field is a
    # configuration error, raised before any set is simulated
    def no_simulation(*args):
        raise AssertionError(f"simulated a point with a non-integer {name}")

    monkeypatch.setattr(harness, "_simulate_sets", no_simulation)
    assert name in harness.INT_FIELDS and name in cli._INT_KEYS
    for value in (2.5, 2.0, np.float64(2.0), "2", True):
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            run_sweep(SimConfig(**{**dict(packets=2, packet_bits=20, snr_db_list=(0.0,)),
                                   name: value}))


def test_run_point_rejects_bad_point_index_before_simulating(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a point with a bad index")

    monkeypatch.setattr(harness, "simulate_packet_set", no_simulation)
    cfg = SimConfig(packets=2, packet_bits=20)
    for point_index in (-1, -2**40, 1.0, 2.5, "3", None, True, np.True_):
        with pytest.raises(ConfigurationError):
            run_point(cfg, 10.0, point_index)


def test_run_point_takes_numpy_integer_point_index():
    cfg = SimConfig(packets=3, packet_bits=20, seed=2)
    assert run_point(cfg, 4.0, np.int64(5)) == run_point(cfg, 4.0, 5)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**130), point=st.integers(0, 2**64),
       start=st.integers(0, 2**32 - 1), count=st.integers(0, 6))
@example(seed=0, point=0, start=0, count=0)
@example(seed=2**70, point=cli.MAX_SNR_POINTS, start=2**32 - 1, count=1)
@example(seed=2**32 - 1, point=2**32 - 1, start=7, count=1)
@example(seed=2**96 + 5, point=2**40, start=3, count=2)
@example(seed=2**130, point=2**64, start=2**32 - 2, count=2)
def test_set_seeds_equal_numpy_seed_sequence(seed, point, start, count):
    # one (seed, point) prefix, then every set index below 2**32 that fits; a
    # seed of 2**130 and a point of 2**64 give 9 words, 5 of them past the pool
    indices = np.arange(start, min(start + count, 2**32))
    seeds = harness._set_seeds(seed, point, indices)
    assert seeds.shape == (len(indices), 4) and seeds.dtype == np.uint64
    for row, i in zip(seeds, indices):
        sequence = np.random.SeedSequence([seed, point, int(i)])
        np.testing.assert_array_equal(row, sequence.generate_state(4, np.uint64))
        ours = np.random.Generator(np.random.PCG64(harness._SeedRow(row)))
        ref = np.random.default_rng(sequence)
        assert ours.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(ours.random(3), ref.random(3))
        np.testing.assert_array_equal(ours.bit_generator.random_raw(3),
                                      ref.bit_generator.random_raw(3))


def test_seed_hash_blocks_do_not_change_results(monkeypatch, tiles):
    # 13 sets of 100 bits (25 blocks) go 2 to a 50-block tile, and each hash
    # block of seeds to one call: SEEDS_PER_HASH = 3 hashes 3, 3, 3, 3 and 1
    # seeds per point, in 2, 2, 2, 2 and 1 tiles, and 20 all 13 in 7 tiles
    cfg = SimConfig(scheme="afost", code="alamouti", seed=9, packets=13, packet_bits=100,
                    snr_db_list=(4.0, 8.0))
    expected = run_sweep(cfg)
    d = build_design("alamouti")
    assert tiles.force(50, "afost", d, get_constellation("qpsk"), 2) == 50
    hashed = []
    real = harness._set_seeds
    monkeypatch.setattr(harness, "_set_seeds",
                        lambda *args: hashed.append(len(args[2])) or real(*args))
    for per_hash, sizes, per_point in ((3, [3, 3, 3, 3, 1], 9), (20, [13], 7)):
        monkeypatch.setattr(harness, "SEEDS_PER_HASH", per_hash)
        hashed.clear()
        tiles.decided = 0
        assert run_sweep(cfg) == expected
        assert hashed == sizes * 2
        assert tiles.decided == per_point * 2


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_simulate_sets_receives_ranges_that_cover_every_set_once(monkeypatch, workers):
    # no array of every set index is built: each point's sets reach _simulate_sets
    # as min(workers, packets) ranges; threads stand in for the pool's processes
    received = []
    real = harness._simulate_sets

    def recording(cfg, snr_db, point_index, sets):
        received.append((point_index, sets))
        return real(cfg, snr_db, point_index, sets)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(harness, "_simulate_sets", recording)
    cfg = SimConfig(scheme="direct", code="alamouti", seed=3, packets=7, packet_bits=20,
                    snr_db_list=(0.0, 5.0), workers=workers)
    run_sweep(cfg)
    for point in (0, 1):
        ranges = [sets for i, sets in received if i == point]
        assert all(isinstance(r, range) and r.step == 1 for r in ranges)
        ranges.sort(key=lambda r: r.start)
        assert len(ranges) == workers
        assert [i for r in ranges for i in r] == list(range(cfg.packets))


def test_config_hash_ignores_workers_and_output():
    # the output path is no config field; test_cli's determinism test writes
    # one run to two paths and compares the bytes, config_hash included
    a = SimConfig(workers=1)
    b = SimConfig(workers=8)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(SimConfig(seed=1))
    assert config_hash(SimConfig()) == config_hash(SimConfig().resolved())
    # the default config's hash, which every CSV of a default run carries
    assert config_hash(SimConfig()) == "13b59155648a"


def test_numpy_scalar_fields_give_the_same_records_and_bytes(tmp_path):
    # numpy integers and bools are validated as the Python values they equal,
    # and hashed as them too, so the two spellings write the same CSV
    base = dict(scheme="dstc", code="c34", snr_db_list=(0.0, 8.0))
    spellings = [
        SimConfig(packets=3, packet_bits=50, seed=7, phases_override=5, noiseless=False, **base),
        SimConfig(packets=np.int64(3), packet_bits=np.int32(50), seed=np.uint64(7),
                  phases_override=np.int16(5), noiseless=np.False_, **base),
    ]
    assert len({config_hash(cfg) for cfg in spellings}) == 1
    records = [run_sweep(cfg) for cfg in spellings]
    assert records[0] == records[1]
    for i, recs in enumerate(records):
        emit_csv(recs, tmp_path / f"{i}.csv")
    assert (tmp_path / "0.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()


def test_snr_array_gives_the_same_records_as_the_tuple():
    base = dict(scheme="dstc", code="c34", packets=3, packet_bits=50)
    assert (run_sweep(SimConfig(snr_db_list=np.array([0.0, 8.0]), **base))
            == run_sweep(SimConfig(snr_db_list=(0.0, 8.0), **base)))


# slots_total of two 5000-bit packet sets at N = M: alamouti and c44 frame a
# set in 1250 blocks, c34 in 834 (QPSK, 3 symbols a block)
SLOTS_TOTAL = {
    ("stssc", "alamouti"): 15000, ("stssc", "c34"): 25020, ("stssc", "c44"): 50000,
    ("afost", "alamouti"): 15000, ("afost", "c34"): 20016, ("afost", "c44"): 50000,
    ("dstc", "alamouti"): 20000, ("dstc", "c34"): 35028, ("dstc", "c44"): 80000,
    ("direct", "alamouti"): 10000, ("direct", "c34"): 15012, ("direct", "c44"): 40000,
}


@pytest.mark.parametrize("phases_override", [None, 9])
@pytest.mark.parametrize("scheme, code", list(SLOTS_TOTAL))
def test_records_account_bits_and_slots(scheme, code, phases_override):
    # every set carries packet_bits payload bits and costs its blocks times
    # the scheme's slots per block, or phases_override slots per block
    rec = run_point(SimConfig(scheme=scheme, code=code, packets=2, packet_bits=5000, seed=3,
                              phases_override=phases_override), 5.0)
    assert rec.bits_total == 10000 and rec.packets_total == 2
    blocks = 2 * (834 if code == "c34" else 1250)
    assert rec.slots_total == (SLOTS_TOTAL[scheme, code] if phases_override is None
                               else blocks * phases_override)
    assert rec.bit_errors > 0
    assert rec.throughput_bps == (2 - rec.packet_errors) * 5000 / rec.slots_total * 20e6


def test_phases_override_changes_only_slot_accounting():
    base = dict(scheme="stssc", code="alamouti", seed=6, **SMALL)
    rec = run_point(SimConfig(**base), 10.0)
    over = run_point(SimConfig(phases_override=10, **base), 10.0)
    # 60 qpsk bits / (2 bits * 2 slots) = 15 blocks per packet
    assert rec.slots_total == 30 * 15 * 6
    assert over.slots_total == 30 * 15 * 10
    assert over.bit_errors == rec.bit_errors
    with pytest.raises(ConfigurationError):
        validate(SimConfig(phases_override=0))


def test_run_point_repeatable():
    cfg = SimConfig(scheme="stssc", code="alamouti", seed=3, **SMALL)
    r1 = run_point(cfg, 10.0)
    r2 = run_point(cfg, 10.0)
    assert r1 == r2


def test_run_point_worker_invariance():
    base = dict(scheme="afost", code="alamouti", seed=4, **SMALL)
    serial = run_point(SimConfig(workers=1, **base), 6.0)
    parallel = run_point(SimConfig(workers=4, **base), 6.0)
    assert serial == parallel


def test_sweep_worker_invariance_uneven_chunks():
    # 7 packet sets split unevenly over 2 and 3 workers
    cfg = SimConfig(scheme="stssc", code="alamouti", seed=8, packets=7, packet_bits=60,
                    snr_db_list=(0.0, 5.0, 10.0))
    serial = run_sweep(replace(cfg, workers=1))
    assert run_sweep(replace(cfg, workers=2)) == serial
    assert run_sweep(replace(cfg, workers=3)) == serial


def test_sweep_opens_one_pool(monkeypatch):
    starts = []
    real_pool = harness.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        starts.append(1)
        assert "initializer" not in kwargs      # the workers take the heap policy in _simulate_sets
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", counting_pool)
    cfg = SimConfig(scheme="direct", code="alamouti", seed=1, packets=6, packet_bits=60,
                    snr_db_list=(0.0, 4.0, 8.0, 12.0))
    assert len(run_sweep(replace(cfg, workers=2))) == 4
    assert len(starts) == 1
    run_sweep(replace(cfg, workers=1))
    assert len(starts) == 1


def test_malloc_initializer_sets_glibc_options(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    harness._raise_malloc_thresholds()
    assert calls == [(-3, 32 << 20), (-1, 1 << 28)]      # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def test_serial_sweep_applies_the_heap_policy_before_simulating(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def simulate(*args, **kwargs):
        calls.append("simulate")
        return real(*args, **kwargs)

    real = harness.simulate_packet_set
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(harness, "simulate_packet_set", simulate)
    run_sweep(SimConfig(scheme="direct", code="alamouti", seed=1, packets=2, packet_bits=60,
                        snr_db_list=(0.0,)))
    assert calls[:3] == [(-3, 32 << 20), (-1, 1 << 28), "simulate"]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched policy function reaches workers only by fork")
def test_pool_workers_apply_the_heap_policy(monkeypatch, tmp_path):
    log = tmp_path / "pids"

    def record_pid():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")

    monkeypatch.setattr(harness, "_raise_malloc_thresholds", record_pid)
    run_sweep(SimConfig(scheme="direct", code="alamouti", seed=1, packets=6, packet_bits=60,
                        snr_db_list=(0.0, 4.0), workers=2))
    pids = log.read_text().split()
    assert len(pids) == 4                   # once per chunk: 2 points x 2 chunks
    # the caller simulates each point's first chunk, the pool's one worker the second
    caller = str(os.getpid())
    assert pids.count(caller) == 2
    workers = [pid for pid in pids if pid != caller]
    assert len(workers) == 2 and len(set(workers)) == 1


@pytest.mark.parametrize("workers", [2, 5])
def test_a_single_chunk_starts_no_pool(monkeypatch, workers):
    # one packet set per point is one chunk, which the caller simulates itself
    def no_pool(*args, **kwargs):
        raise AssertionError("a run of one chunk per point started a pool")

    cfg = SimConfig(scheme="stssc", code="alamouti", seed=2, packets=1, packet_bits=60,
                    snr_db_list=(0.0, 10.0))
    serial = run_sweep(cfg)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    assert run_sweep(replace(cfg, workers=workers)) == serial


def test_malloc_initializer_is_quiet_without_glibc(monkeypatch):
    def missing(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", missing)
    assert harness._raise_malloc_thresholds() is None
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())     # a C library without mallopt
    assert harness._raise_malloc_thresholds() is None


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched packet-set function reaches workers only by fork")
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_worker_failure_cancels_queue_and_writes_nothing(monkeypatch, tmp_path, capsys, error):
    real = harness.simulate_packet_set
    sets = multiprocessing.Value("i", 0)        # shared with the forked workers
    caller = os.getpid()
    caller_rhos = []                            # appended to in the calling process only

    def failing(scheme, design, constellation, N, rho, sigma2, fading, kappa_mode,
                packet_bits, rngs):
        with sets.get_lock():
            sets.value += len(rngs)
        if os.getpid() == caller:
            caller_rhos.append(rho)
        elif rho == 1.0:                        # the 0 dB point, in a worker
            raise error("injected worker failure")
        time.sleep(0.05)
        return real(scheme, design, constellation, N, rho, sigma2, fading, kappa_mode,
                    packet_bits, rngs)

    monkeypatch.setattr(harness, "simulate_packet_set", failing)
    snrs = tuple(float(s) for s in range(0, 20, 2))
    cfg = SimConfig(scheme="direct", code="alamouti", seed=1, packets=4, packet_bits=60,
                    snr_db_list=snrs, workers=2)
    with pytest.raises(error, match="injected worker failure"):
        run_sweep(cfg)
    assert multiprocessing.active_children() == []
    # the caller simulated its own chunk of the failing point and went no further
    assert caller_rhos == [1.0]
    # the queued points behind the failure were cancelled, not run
    assert sets.value < cfg.packets * len(snrs) // 2

    out = tmp_path / "out.csv"
    argv = ["run", "--scheme", "direct", "--snr", "0:2:18", "--packets", "4",
            "--packet-bits", "60", "--workers", "2", "-o", str(out)]
    if error is KeyboardInterrupt:
        with pytest.raises(error, match="injected worker failure"):
            cli.main(argv)
    else:
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == "error: RuntimeError: injected worker failure\n"
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_sigint_is_held_until_the_block_ends():
    # an interrupt inside the block (the pool being fed) is delivered once, at
    # its end, by the handler that was set before; other threads just run it
    before = signal.signal(signal.SIGINT, signal.default_int_handler)
    ran = []
    try:
        with pytest.raises(KeyboardInterrupt):
            with harness._sigint_held():
                signal.raise_signal(signal.SIGINT)
                signal.raise_signal(signal.SIGINT)
                ran.append("main")
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

        def in_thread():
            with harness._sigint_held():
                ran.append("thread")

        thread = threading.Thread(target=in_thread)
        thread.start()
        thread.join()
    finally:
        signal.signal(signal.SIGINT, before)
    assert ran == ["main", "thread"]


@pytest.mark.parametrize("scheme", ["stssc", "afost", "dstc", "direct"])
def test_sweep_records_do_not_depend_on_grouping(monkeypatch, tiles, scheme):
    # 127-bit QPSK sets are 32 blocks: 40 sets run as one call of one tile.
    # The call takes the point's whole hash block of 40 sets at any tile size:
    # a set spans two 20-block tiles, or 32 one-block tiles
    cfg = SimConfig(scheme=scheme, code="alamouti", seed=9, packets=40, packet_bits=127,
                    snr_db_list=(0.0, 10.0))
    calls = []
    real = harness.simulate_packet_set
    monkeypatch.setattr(harness, "simulate_packet_set",
                        lambda *args: calls.append(len(args[-1])) or real(*args))
    grouped = run_sweep(cfg)
    assert calls == [40] * 2 and tiles.decided == 2
    for blocks, per_set in ((20, 2), (1, 32)):
        calls.clear()
        tiles.decided = 0
        assert tiles.force(blocks, scheme, build_design("alamouti"), get_constellation("qpsk"),
                           2) == blocks
        assert run_sweep(cfg) == grouped
        assert calls == [40] * 2 and tiles.decided == 80 * per_set


def test_noiseless_point_is_error_free():
    cfg = SimConfig(scheme="stssc", code="alamouti", noiseless=True, seed=0, **SMALL)
    rec = run_point(cfg, 0.0)
    assert rec.ber == 0.0 and rec.per == 0.0
    # max throughput: every payload bit lands; alamouti carries 4 bits / 6 slots
    assert rec.throughput_bps == pytest.approx(rec.bits_total / rec.slots_total * 20e6)


def test_sweep_row_count_and_monotonic_direct():
    cfg = SimConfig(scheme="direct", code="alamouti", mod="bpsk", seed=2,
                    packets=400, packet_bits=100, snr_db_list=(0.0, 4.0, 8.0, 12.0))
    records = run_sweep(cfg)
    assert len(records) == 4
    bers = [r.ber for r in records]
    # unit-mag direct BPSK: BER strictly improves with SNR at this sample size
    assert all(b1 > b2 for b1, b2 in zip(bers, bers[1:]))


def test_emit_csv_roundtrip_and_determinism(tmp_path):
    cfg = SimConfig(scheme="direct", code="alamouti", seed=5, **SMALL)
    records = run_sweep(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(records, str(p1))
    emit_csv(records, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().split("\n")
    assert len(lines) == 1 + len(records)
    assert lines[0] == ",".join(CSV_HEADER)
    rows = read_csv(str(p1))
    assert float(rows[0]["ber"]) == records[0].ber
    assert rows[0]["config_hash"] == config_hash(cfg)


def test_emit_csv_stderr_columns(tmp_path):
    cfg = SimConfig(scheme="direct", code="alamouti", seed=5, **SMALL)
    path = tmp_path / "s.csv"
    emit_csv(run_sweep(cfg), str(path), extra_stderr=True)
    rows = read_csv(str(path))
    assert "ber_stderr" in rows[0] and "per_stderr" in rows[0]
    assert float(rows[0]["ber_stderr"]) >= 0


def test_emit_csv_bad_path_writes_nothing(tmp_path):
    cfg = SimConfig(scheme="direct", code="alamouti", seed=5, **SMALL)
    records = run_sweep(cfg)
    missing = tmp_path / "no" / "dir" / "out.csv"
    with pytest.raises(OSError):
        emit_csv(records, str(missing))
    assert not missing.exists()


def test_compare_runs(tmp_path):
    cfg = SimConfig(scheme="direct", code="alamouti", seed=5, **SMALL)
    records = run_sweep(cfg)
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    emit_csv(records, str(p1))
    emit_csv(records, str(p2))
    out = tmp_path / "cmp.csv"
    table = compare_runs([str(p1), str(p2)], str(out))
    assert table[0] == ["snr_db", "one_ber", "two_ber",
                        "one_throughput_bps", "two_throughput_bps"]
    for row in table[1:]:
        assert row[1] == row[2] and row[3] == row[4]
    assert out.exists()


def test_emit_csv_and_compare_runs_take_path_objects(tmp_path):
    records = run_sweep(SimConfig(scheme="direct", code="alamouti", seed=5, **SMALL))
    emit_csv(records, tmp_path / "run.csv")
    table = compare_runs([tmp_path / "run.csv"], tmp_path / "cmp.csv")
    assert (tmp_path / "cmp.csv").read_text().splitlines()[0] == ",".join(table[0])
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cmp.csv", "run.csv"]


def test_compare_runs_bad_path_writes_nothing(tmp_path):
    # a missing directory fails before the write; a directory in the way
    # fails at the final replace, after the .tmp file was written
    cfg = SimConfig(scheme="direct", code="alamouti", seed=5, **SMALL)
    p = tmp_path / "run.csv"
    emit_csv(run_sweep(cfg), str(p))
    missing = tmp_path / "no" / "dir" / "cmp.csv"
    with pytest.raises(OSError):
        compare_runs([str(p)], str(missing))
    assert not missing.parent.exists()
    taken = tmp_path / "taken"
    taken.mkdir()
    with pytest.raises(OSError):
        compare_runs([str(p)], str(taken))
    assert taken.is_dir() and not any(taken.iterdir())
    assert sorted(f.name for f in tmp_path.iterdir()) == ["run.csv", "taken"]


def test_compare_runs_single_input_passthrough(tmp_path):
    cfg = SimConfig(scheme="direct", code="alamouti", seed=5, **SMALL)
    p = tmp_path / "solo.csv"
    emit_csv(run_sweep(cfg), str(p))
    table = compare_runs([str(p)], str(tmp_path / "out.csv"))
    assert len(table) == 1 + len(SMALL["snr_db_list"])


def test_compare_runs_grid_mismatch(tmp_path):
    cfg1 = SimConfig(scheme="direct", code="alamouti", seed=5, **SMALL)
    cfg2 = SimConfig(scheme="direct", code="alamouti", seed=5, packets=30,
                     packet_bits=60, snr_db_list=(0.0, 12.0))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(cfg1), str(p1))
    emit_csv(run_sweep(cfg2), str(p2))
    with pytest.raises(ConfigurationError):
        compare_runs([str(p1), str(p2)], str(tmp_path / "cmp.csv"))


def test_compare_runs_rejects_clashing_labels(tmp_path):
    cfg = SimConfig(scheme="direct", code="alamouti", seed=5, **SMALL)
    paths = [tmp_path / "a" / "run.csv", tmp_path / "b" / "run.csv"]
    for path in paths:
        path.parent.mkdir()
        emit_csv(run_sweep(cfg), path)
    with pytest.raises(ConfigurationError, match="share the label 'run'"):
        compare_runs(paths, tmp_path / "cmp.csv")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["a", "b"]


@pytest.mark.parametrize("text", ["", "ber,throughput_bps\n0.5,0\n", "snr_db,ber\n0,0.5\n"],
                         ids=["empty", "no-snr_db", "no-throughput_bps"])
def test_compare_runs_names_file_and_missing_column(tmp_path, text):
    good = tmp_path / "good.csv"
    emit_csv(run_sweep(SimConfig(scheme="direct", code="alamouti", seed=5, **SMALL)), good)
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    missing = [c for c in ("snr_db", "ber", "throughput_bps") if c not in text]
    with pytest.raises(ConfigurationError, match=f"bad.csv has no {', '.join(missing)} column"):
        compare_runs([good, bad], tmp_path / "cmp.csv")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["bad.csv", "good.csv"]


# small valid configs, and the same with one field set to an invalid or
# extreme value; a broken SNR list may hold any float at all
SMALL_CONFIGS = st.builds(
    SimConfig,
    scheme=st.sampled_from(SCHEMES),
    code=st.sampled_from(DESIGN_NAMES),
    sources=st.none() | st.integers(1, 3),
    mod=st.none() | st.sampled_from(CONSTELLATION_NAMES),
    fading=st.sampled_from(FADING_MODELS),
    normalization=st.sampled_from(KAPPA_MODES),
    snr_db_list=st.lists(st.floats(-10.0, 30.0), min_size=1, max_size=3).map(tuple),
    packets=st.integers(1, 5),
    packet_bits=st.integers(1, 40),
    seed=st.integers(0, 2**64),
    noiseless=st.booleans(),
    phases_override=st.none() | st.integers(1, 30),
)
BROKEN_FIELDS = st.sampled_from([
    ("scheme", "relay"), ("code", "c88"), ("sources", 0), ("relays", 5), ("mod", "8psk"),
    ("fading", "nakagami"), ("normalization", "none"), ("snr_db_list", ()), ("packets", 0),
    ("packet_bits", 0), ("seed", -1), ("phases_override", 0), ("noiseless", "false"),
    ("snr_db_list", (0.0, "3")),
]) | st.tuples(st.just("snr_db_list"), st.lists(st.floats(), min_size=1, max_size=3).map(tuple))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(config=SMALL_CONFIGS, broken=st.none() | BROKEN_FIELDS, extra_stderr=st.booleans())
def test_random_configs_rejected_or_worker_invariant(config, broken, extra_stderr):
    if broken is not None:
        config = replace(config, **dict([broken]))
    try:
        validate(config)
    except ConfigurationError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        data = []
        for workers in (1, 2):
            path = os.path.join(tmp, f"w{workers}.csv")
            emit_csv(run_sweep(replace(config, workers=workers)), path, extra_stderr)
            with open(path, "rb") as fh:
                data.append(fh.read())
    assert data[0] == data[1]
