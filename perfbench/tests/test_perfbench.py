"""Tests of the benchmark itself: tiny runs of every workload, and the traced run's clean-up.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from stssc import _kernels, batch, channel, cli, decoder, harness, modem, schemes  # noqa: E402

MODULES = (_kernels, batch, channel, cli, decoder, harness, modem, schemes)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few packet sets or blocks."""
    monkeypatch.setattr(workloads, "PAPER_PACKETS", 2)
    monkeypatch.setattr(workloads, "DIGEST_PACKETS", 1)
    monkeypatch.setattr(workloads, "LONG_BITS", 600)
    monkeypatch.setattr(workloads, "SHORT_PACKETS", 3)
    monkeypatch.setattr(workloads, "ORACLE_BLOCKS", 2)


def snapshot():
    return {module.__name__: dict(vars(module)) for module in MODULES}


def assert_unpatched(before):
    for module in MODULES:
        now = vars(module)
        changed = [name for name, value in before[module.__name__].items() if now.get(name) is not value]
        assert not changed, f"{module.__name__} still patched: {changed}"


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_of_every_workload(name, tiny, tmp_path):
    workload = workloads.make(name, str(tmp_path))
    workload.setup()
    before = snapshot()
    plain = workload.run_pass(workloads.pass_seed(1, 0))
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        res = workload.run_pass(workloads.pass_seed(1, 0), tracer=tracer, workers=1)
    assert_unpatched(before)
    assert plain.failed == res.failed == 0
    assert plain.payload_bits == res.payload_bits > 0
    assert plain.blocks == res.blocks > 0
    assert plain.cpu_s > 0 and res.cpu_s > 0
    assert tracer.spans and all(span.end >= span.start for span in tracer.spans)
    assert all(ok for _, ok in workload.checks(seed=1)), workload.checks(seed=1)
    if name == "short-baselines":
        assert tracer.counts["kernels.joint_argmin.cand_evals"] == 0
    if name != "oracle-check":
        assert tracer.counts["kernels.joint_argmin.cand_evals"] + \
            tracer.counts["kernels.afost_argmin.cand_evals"] > 0


def test_traced_restores_names_after_an_exception(tmp_path):
    before = snapshot()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert harness.simulate_packet_set is not before["stssc.harness"]["simulate_packet_set"]
            raise RuntimeError("stop")
    assert_unpatched(before)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.section("x"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(10_000))
    stats = tracing.summarize(tracer.spans)
    outer, inner = stats["outer"], stats["inner"]
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    assert stats["section"].total_s >= outer.total_s >= inner.total_s > 0
    assert tracing.summarize(tracer.spans, "other") == {}


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace_flag, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace_flag, section):
    cmd = [*BENCHMARK["command"], "--workload", "short-baselines", "--seed", "3", "--seconds", "0.1",
           "--trace", str(trace_flag)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    cmd = [*BENCHMARK["command"], "--workload", "oracle-check", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_ber_verdicts():
    references = {"a": {"ber": 0.1, "bits": 10**6}, "rare": {"ber": 1e-6, "bits": 10**6}}
    tally = {"a": [1010, 10_000], "rare": [0, 10_000]}
    assert [ok for _, ok in workloads.ber_verdicts(tally, references, 6, 30)] == [True]
    tally = {"a": [2000, 10_000], "missing": [5, 10_000]}
    assert [ok for _, ok in workloads.ber_verdicts(tally, references, 6, 30)] == [False, False]


def test_numba_comparison_runs_when_a_compiled_kernel_exists(monkeypatch):
    import run

    assert (run.numba_comparison() is None) == (not _kernels._HAVE_NUMBA)
    monkeypatch.setattr(_kernels, "_HAVE_NUMBA", True)
    monkeypatch.setattr(_kernels, "_joint_argmin_numba", _kernels._joint_argmin_numpy, raising=False)
    out = run.numba_comparison()
    assert out["identical"] is True
    assert out["joint_argmin_numba_ms"] > 0 and out["joint_argmin_numpy_ms"] > 0
