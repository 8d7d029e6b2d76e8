import numpy as np
import pytest

from stssc import batch
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


class Tiles:
    """Forces simulate_packet_set's tile size through batch.TILE_BYTES and counts its tiles."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.decided = 0
        # every tile's decision ends in exactly one call of one of these
        for name in ("first_source_index", "nearest_index"):
            monkeypatch.setattr(batch, name, self._counted(getattr(batch, name)))

    def _counted(self, fn):
        def counted(*args):
            self.decided += 1
            return fn(*args)
        return counted

    def force(self, blocks, scheme, design, constellation, N):
        """Set TILE_BYTES to `blocks` blocks of this search; returns batch.tile_blocks' tile.

        That is `blocks`, or more where a candidate search's table floor is larger.
        """
        self.monkeypatch.setattr(batch, "TILE_BYTES",
                                 blocks * batch.block_bytes(scheme, design, constellation, N))
        return batch.tile_blocks(scheme, design, constellation, N)


@pytest.fixture
def tiles(monkeypatch):
    return Tiles(monkeypatch)
