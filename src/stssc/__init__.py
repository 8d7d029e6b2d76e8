"""Link-level simulator for distributed space-time coding of superimposed relay signals."""

from .channel import ChannelRealization, awgn, draw_channel
from .designs import OrthogonalDesign, build_design, codeword, verify_orthogonality
from .errors import ConfigurationError, ConsistencyError, UsageError
from .harness import SimConfig, SimRecord, run_point, run_sweep
from .modem import Constellation, Packet, SourceBlock, frame_packets, get_constellation

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization", "ConfigurationError", "ConsistencyError", "Constellation",
    "OrthogonalDesign", "Packet", "SimConfig", "SimRecord", "SourceBlock", "UsageError",
    "awgn", "build_design", "codeword", "draw_channel", "frame_packets",
    "get_constellation", "run_point", "run_sweep",
    "verify_orthogonality",
]
