import hashlib
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from stssc import cli
from stssc.batch import SCHEMES
from stssc.channel import FADING_MODELS
from stssc.cli import _parse_snr, _read_config_file, build_parser, main
from stssc.designs import DESIGN_NAMES
from stssc.errors import ConfigurationError
from stssc.harness import read_csv
from stssc.modem import CONSTELLATION_NAMES, KAPPA_MODES

SRC = Path(__file__).resolve().parents[1] / "src"


def test_parse_snr_range_and_list():
    assert _parse_snr("0:2:6") == (0.0, 2.0, 4.0, 6.0)
    assert _parse_snr("0:5:30")[-1] == 30.0
    assert _parse_snr("1,2.5,10") == (1.0, 2.5, 10.0)
    with pytest.raises(ConfigurationError):
        _parse_snr("0:-1:10")
    with pytest.raises(ConfigurationError):
        _parse_snr("abc")
    # an infinite bound would never end the range, a nan step would end it at once
    for text in ("0:1:inf", "inf:1:inf", "-inf:1:0", "0:nan:10"):
        with pytest.raises(ConfigurationError, match="must be finite"):
            _parse_snr(text)
    # a step too small for the range, or too small to move its float at all
    assert len(_parse_snr(f"1:1:{cli.MAX_SNR_POINTS}")) == cli.MAX_SNR_POINTS
    for text in (f"1:1:{cli.MAX_SNR_POINTS + 1}", "0:1e-9:10", "1e10:1e-7:1e10"):
        with pytest.raises(ConfigurationError, match="at most"):
            _parse_snr(text)


def test_read_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment\nscheme = afost\npacket-bits=80\n\nseed=9\n")
    assert _read_config_file(str(path)) == {
        "scheme": "afost", "packet_bits": "80", "seed": "9",
    }
    bad = tmp_path / "bad.txt"
    bad.write_text("just words\n")
    with pytest.raises(ConfigurationError):
        _read_config_file(str(bad))


@pytest.mark.parametrize("line", ["packets=abc", "noiseless=maybe", "workers=2.5", "snr=x"])
def test_bad_config_value_names_file_line_and_key(tmp_path, capsys, line):
    path = tmp_path / "cfg.txt"
    path.write_text(f"# comment\nscheme=direct\n{line}\n")
    key = line.split("=")[0]
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}:3: bad value for '{key}'")):
        _read_config_file(str(path))
    assert main(["run", "--config", str(path), "-o", str(tmp_path / "x.csv")]) == 1
    assert f"cfg.txt:3: bad value for '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("word,value", [("1", True), ("TRUE", True), ("yes", True),
                                        ("0", False), ("False", False), ("no", False)])
def test_config_bool_words(word, value):
    assert cli._coerce("noiseless", word) is value


def test_run_command_end_to_end(tmp_path):
    out = tmp_path / "run.csv"
    rc = main([
        "run", "--scheme", "direct", "--code", "alamouti", "--snr", "0,10",
        "--packets", "20", "--packet-bits", "40", "--seed", "1", "-o", str(out),
    ])
    assert rc == 0
    rows = read_csv(str(out))
    assert len(rows) == 2
    assert [r["snr_db"] for r in rows] == ["0", "10"]


def test_run_determinism_across_invocations(tmp_path):
    args = ["run", "--scheme", "stssc", "--code", "alamouti", "--snr", "6",
            "--packets", "15", "--packet-bits", "30", "--seed", "2"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["-o", str(p1)]) == 0
    assert main(args + ["-o", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scheme=direct\ncode=alamouti\nsnr=0\npackets=10\npacket-bits=20\nseed=3\n")
    out1, out2 = tmp_path / "f.csv", tmp_path / "g.csv"
    assert main(["run", "--config", str(cfg), "-o", str(out1)]) == 0
    # flag overrides the file's seed; results must differ in seed column
    assert main(["run", "--config", str(cfg), "--seed", "4", "-o", str(out2)]) == 0
    assert read_csv(str(out1))[0]["seed"] != read_csv(str(out2))[0]["seed"]


def test_stderr_flag_adds_columns(tmp_path):
    out = tmp_path / "e.csv"
    assert main(["run", "--scheme", "direct", "--code", "alamouti", "--snr", "0",
                 "--packets", "10", "--packet-bits", "20", "--seed", "1",
                 "--stderr", "-o", str(out)]) == 0
    assert "ber_stderr" in read_csv(str(out))[0]


def test_compare_command(tmp_path, capsys):
    a, b = tmp_path / "x.csv", tmp_path / "y.csv"
    for path, seed in ((a, "1"), (b, "2")):
        main(["run", "--scheme", "direct", "--code", "alamouti", "--snr", "0,6",
              "--packets", "10", "--packet-bits", "20", "--seed", seed, "-o", str(path)])
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(a), str(b), "-o", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "snr_db,x_ber,y_ber,x_throughput_bps,y_throughput_bps"


@pytest.mark.parametrize("row", ["0,0.5", "0,0.5,7,1"], ids=["short", "long"])
def test_compare_rejects_row_off_the_header(tmp_path, capsys, row):
    ok, bad = tmp_path / "ok.csv", tmp_path / "bad.csv"
    ok.write_text("snr_db,ber,throughput_bps\n0,0.4,7\n")
    bad.write_text(f"snr_db,ber,throughput_bps\n\n{row}\n")
    assert main(["compare", str(ok), str(bad), "-o", str(tmp_path / "cmp.csv")]) == 1
    cells = len(row.split(","))
    assert f"bad.csv:3: {cells} cells under a 3-column header" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["bad.csv", "ok.csv"]


def test_dump_design_command(capsys):
    assert main(["dump-design", "c34"]) == 0
    text = capsys.readouterr().out
    assert "c34: T=4 M=3 K=3 rate=3/4" in text
    assert main(["dump-design", "nosuch"]) == 1


def test_exit_codes(tmp_path, capsys):
    # configuration error -> 1 (including argparse-level errors)
    assert main(["run", "--scheme", "direct", "--snr", "0", "--workers", "0",
                 "-o", str(tmp_path / "x.csv")]) == 1
    assert main(["run", "--scheme", "direct", "--code", "alamouti",
                 "--relays", "5", "--snr", "0", "-o", str(tmp_path / "x.csv")]) == 1
    assert main(["run", "--scheme", "bogus", "-o", str(tmp_path / "x.csv")]) == 1
    assert main(["run", "--snr=0:1:inf", "-o", str(tmp_path / "x.csv")]) == 1
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "run.csv").write_text("snr_db,ber,throughput_bps\n0,0.5,0\n")
    assert main(["compare", str(tmp_path / "a" / "run.csv"), str(tmp_path / "b" / "run.csv"),
                 "-o", str(tmp_path / "cmp.csv")]) == 1
    # I/O error -> 2
    assert main(["run", "--scheme", "direct", "--code", "alamouti", "--snr", "0",
                 "--packets", "5", "--packet-bits", "10", "--seed", "1",
                 "-o", str(tmp_path / "missing" / "x.csv")]) == 2


# sha256 of the CSV each run writes (alamouti, 3 packets of 64 bits, 0 and 10 dB,
# one worker, seed 0); they cover every column, config_hash and the slot
# accounting included, so a refactor that changes any byte fails here
CSV_DIGESTS = {
    "stssc": "432451ad523c4131c355237dad9c4b01a2ebe972f4410af181072da0a5787824",
    "afost": "26c91e47cfa270718707785f8eaa460e59bfd985f1c555f5b33b47f12309dc04",
    "dstc": "dde257ddabeb3b44e4e0ec46029761beecc9927cb78602ff378c17751029f28a",
    "direct": "04ba41589017dbec77606ce2160348d3cc1751863d1c4efca189d77c250ccff3",
    "stssc --phases-override 9 --stderr":
        "d08639380089f3be6ff68f23bea7e2353fc492884f830d16392fdffc5978af61",
}


@pytest.mark.parametrize("run", list(CSV_DIGESTS))
def test_run_csv_bytes_are_pinned(tmp_path, run):
    out = tmp_path / "run.csv"
    scheme, *extra = run.split()
    assert main(["run", "--scheme", scheme, "--code", "alamouti", "--packets", "3",
                 "--packet-bits", "64", "--snr", "0,10", "--workers", "1", *extra,
                 "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_DIGESTS[run]


def test_run_choices_are_the_library_name_lists():
    run = build_parser()._subparsers._group_actions[0].choices["run"]
    choices = {action.dest: action.choices for action in run._actions if action.choices}
    assert choices == {"scheme": SCHEMES, "code": DESIGN_NAMES, "mod": CONSTELLATION_NAMES,
                       "fading": FADING_MODELS, "normalization": KAPPA_MODES}


def _children(pid):
    """Pids of the children of every thread of pid, read from /proc."""
    pids = set()
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            pids.update(int(p) for p in (task / "children").read_text().split())
    except FileNotFoundError:           # the process or one of its threads just ended
        pass
    return pids


def _state_and_start(pid):
    """(state, start time) of a process from /proc/<pid>/stat, or None once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], fields[19]


def _still_running(workers):
    """The pids in workers ({pid: start time}) that are neither gone nor zombies.

    A pid with another start time belongs to a later process.
    """
    alive = []
    for pid, start in workers.items():
        stat = _state_and_start(pid)
        if stat is not None and stat[0] != "Z" and stat[1] == start:
            alive.append(pid)
    return alive


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_sigint_stops_sweep_and_its_workers(tmp_path):
    # a real SIGINT, sent to the CLI process only, while its pool works through
    # 10 001 points of two one-set tasks each
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    # stderr goes to a file: a pipe would stay open as long as an orphaned worker runs
    err = tempfile.TemporaryFile()
    # the child takes SIGINT's default disposition even where pytest runs with it
    # ignored, which a child would inherit and which would let the sweep run on
    proc = subprocess.Popen(
        [sys.executable, "-m", "stssc.cli", "run", "--snr", "0:0.01:100", "--packets", "2",
         "--workers", "2", "-o", str(tmp_path / "out.csv")],
        cwd=tmp_path, env=env, stdout=subprocess.DEVNULL, stderr=err,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    workers = {}
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert proc.poll() is None, "the sweep ended before both workers were seen"
            assert time.monotonic() < deadline, "the workers did not start"
            for pid in _children(proc.pid):
                stat = _state_and_start(pid)
                if stat is not None:
                    workers.setdefault(pid, stat[1])
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=60)
        err.seek(0)
        assert b"KeyboardInterrupt" in err.read()
        assert proc.returncode != 0
        assert list(tmp_path.iterdir()) == []           # no CSV and no .tmp
        assert _still_running(workers) == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in _still_running(workers):
            os.kill(pid, signal.SIGKILL)
        err.close()
