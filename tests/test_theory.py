"""Closed-form BER anchors: one source, unit-magnitude gains.

Every |h| = 1, so with sigma^2 = 1 each relay amplifies by g, with
g^2 = rho / (rho + 1), and its copy of a symbol reaches the destination with
SNR g^2 rho kappa^2 / (g^2 + 1).  stssc's and afost's matched filters add the
M copies, so gamma = M g^2 rho kappa^2 / (g^2 + 1) (the two-hop
amplify-and-forward SNR: Laneman, Tse and Wornell, IEEE Trans. IT 2004;
Hasna and Alouini, IEEE Trans. Wireless Commun. 2003).  The direct link has
gamma = rho kappa^2.  A bit then errs with probability Q(sqrt(2 gamma)) under
BPSK and Q(sqrt(gamma)) under Gray QPSK.  dstc is no anchor: when its relays
disagree the symbols leak into each other, so its BER is an integral over a
random phase.
"""

from itertools import product
from math import erfc, sqrt

from stssc.designs import build_design
from stssc.harness import SimConfig, run_sweep

# fixed before the outcome was looked at: 80 000 bits per point, so a point's
# binomial standard error is at most 0.18 percentage points
SIZES = dict(packets=80, packet_bits=1000, seed=7)
SNRS_DB = (0.0, 6.0)
CODE_MODS = [("alamouti", "bpsk"), ("alamouti", "qpsk"), ("c34", "bpsk"), ("c34", "qpsk"),
             ("c44", "bpsk")]


def q_function(x: float) -> float:
    return 0.5 * erfc(x / sqrt(2.0))


def anchor_ber(scheme: str, code: str, mod: str, normalization: str, snr_db: float) -> float:
    d = build_design(code)
    rho = 10.0 ** (snr_db / 10.0)
    # one source: kappa^2 is 1 per slot, or 1/T over the block ("paper")
    kappa2 = 1.0 if normalization == "perslot" else 1.0 / d.T
    if scheme == "direct":
        gamma = rho * kappa2
    else:
        g2 = rho / (rho + 1.0)
        gamma = d.M * g2 * rho * kappa2 / (g2 + 1.0)
    return q_function(sqrt(2.0 * gamma) if mod == "bpsk" else sqrt(gamma))


def test_one_source_ber_matches_closed_form():
    # 3 schemes x 5 code-constellation pairs x 2 normalisations x 2 SNRs = 60
    # points; with the model right about 2.7 of them fall outside 2 SE
    z = {}
    for scheme, (code, mod), normalization in product(("stssc", "afost", "direct"), CODE_MODS,
                                                      ("perslot", "paper")):
        cfg = SimConfig(scheme=scheme, code=code, mod=mod, sources=1, fading="unit-mag",
                        normalization=normalization, snr_db_list=SNRS_DB, **SIZES)
        for rec in run_sweep(cfg):
            p = anchor_ber(scheme, code, mod, normalization, rec.snr_db)
            key = (scheme, code, mod, normalization, rec.snr_db)
            z[key] = round((rec.ber - p) / sqrt(p * (1.0 - p) / rec.bits_total), 2)
    assert {key: v for key, v in z.items() if abs(v) >= 4.0} == {}
    assert sum(abs(v) > 2.0 for v in z.values()) <= 8, z
