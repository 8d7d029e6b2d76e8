import numpy as np

from stssc.channel import ChannelRealization
from stssc.modem import SourceBlock, get_constellation


def make_channel(hSR, hRD, hSD=None, rho=1.0, sigma2=1.0):
    """ChannelRealization with prescribed gains (hand-built test channels)."""
    hSR = np.asarray(hSR, dtype=complex)
    hRD = np.asarray(hRD, dtype=complex)
    if hSD is None:
        hSD = np.ones(hSR.shape[0], dtype=complex)
    return ChannelRealization(
        hSR=hSR, hRD=hRD, hSD=np.asarray(hSD, dtype=complex),
        rho=float(rho), sigma2=float(sigma2),
    )


def constellation_for(design):
    return get_constellation("bpsk" if design.real_only else "qpsk")


def random_block(constellation, N, K, kappa, rng):
    pts = constellation.points[rng.integers(0, constellation.size, size=(N, K))]
    return SourceBlock(X=kappa * pts, raw=pts.copy(), kappa=float(kappa))
