"""Record the BER references and the paper-sweep CSV digest in perfbench/spec.json.

    python3 perfbench/make_reference.py

Runs every simulation workload's configs with many more packet sets than a
benchmark pass, on a seed no benchmark pass uses, and stores BER and bit
count per (scheme, code, SNR) label.  The digest is the sha256 of the
fixed-seed paper-sweep CSV at workers=1.  Rerun only when a change is
meant to alter the results, and say so with the change.
"""

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from stssc import harness  # noqa: E402

REFERENCE_SEED = 987_654_321
# packet sets per config and SNR point, per workload
REFERENCE_PACKETS = {"paper-sweep": 1000, "long-packets": 20, "short-baselines": 20_000}


def main() -> int:
    spec_path = BENCH_DIR / "spec.json"
    spec = json.loads(spec_path.read_text())
    references = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, packets in REFERENCE_PACKETS.items():
            workload = workloads.make(name, workdir)
            for cfg in workload.configs:
                run = replace(cfg, packets=packets, seed=REFERENCE_SEED, workers=2)
                for rec in harness.run_sweep(run):
                    label = workloads.ber_label(cfg.scheme, cfg.code, rec.snr_db)
                    references[label] = {"ber": rec.ber, "bits": rec.bits_total}
                    print(f"{label:<28} ber={rec.ber:.4e} bits={rec.bits_total}", flush=True)
        path = os.path.join(workdir, "digest.csv")
        workloads.PaperSweepWorkload.run_cli(workloads.PaperSweepWorkload.argv(
            workloads.DIGEST_PACKETS, workloads.DIGEST_SEED, 1, path))
        with open(path, "rb") as fh:
            spec["paper_sweep_csv_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    spec["references"] = references
    spec_path.write_text(json.dumps(spec, indent=2) + "\n")
    print(f"wrote {spec_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
