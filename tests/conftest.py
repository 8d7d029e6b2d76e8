import numpy as np

from stssc.channel import ChannelRealization
from stssc.decoder import joint_ml_decode_slot
from stssc.modem import SourceBlock, get_constellation


def make_channel(hSR, hRD, rho=1.0, sigma2=1.0):
    """ChannelRealization with prescribed gains (hand-built test channels)."""
    return ChannelRealization(
        hSR=np.asarray(hSR, dtype=complex), hRD=np.asarray(hRD, dtype=complex),
        rho=float(rho), sigma2=float(sigma2),
    )


def constellation_for(design):
    return get_constellation("bpsk" if design.real_only else "qpsk")


def random_block(constellation, N, K, kappa, rng):
    pts = constellation.points[rng.integers(0, constellation.size, size=(N, K))]
    return SourceBlock(X=kappa * pts, raw=pts.copy(), kappa=float(kappa))


def joint_decode(stats, constellation, kappa, rho, N):
    """Every slot of a block decided with joint_ml_decode_slot, as an (N, K) matrix."""
    return np.column_stack([joint_ml_decode_slot(stats, t, constellation, kappa, rho, N)
                            for t in range(stats.u.shape[1])])
