"""perfbench's candidate-evaluation counts, taken from the arguments the simulator passes.

perfbench/tracing.py counts a search's evaluations from its argument shapes
(_joint_argmin_counts, _afost_argmin_counts), so a layout change at the
_kernels boundary could miscount them without failing anything else.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from stssc import batch
from stssc.batch import SCHEMES, blocks_per_set
from stssc.designs import DESIGN_NAMES, build_design

from conftest import constellation_for

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("name", DESIGN_NAMES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_traced_candidate_evaluations_are_blocks_times_slots_times_candidates(scheme, name,
                                                                               tiles):
    # every block evaluates |Q|^N candidates in each of its K slots, over several
    # tiles per set; afost reaches the search without calling the traced
    # joint_argmin, and dstc and direct search nothing
    d = build_design(name)
    c = constellation_for(d)
    N, sets, bits = d.M, 3, 1000
    tiles.force(100, scheme, d, c, N)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        batch.simulate_packet_set(scheme, d, c, N, 10.0, 1.0, "unit-mag", "perslot", bits,
                                  [np.random.default_rng([5, i]) for i in range(sets)])
    evals = sets * blocks_per_set(d, c, bits) * d.K * c.size**N
    assert tiles.decided >= 2 * sets
    assert tracer.counts["kernels.joint_argmin.cand_evals"] == (evals if scheme == "stssc" else 0)
    assert tracer.counts["kernels.afost_argmin.cand_evals"] == (evals if scheme == "afost" else 0)
