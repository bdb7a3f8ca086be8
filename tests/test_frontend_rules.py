"""The front end's shared selection rules against a list-based oracle.

:func:`~repro.pipeline.availability.squash_mask` (which branches SFP
squashes) and :func:`~repro.pipeline.availability.pgu_defines` (which
predicate defines PGU shifts into history, and when) are the single
derivation both simulation cores apply.  Here they are checked against
``tests/confidence_oracle.frontend_rules`` over the whole suite, both
compiles, every E10 front-end variant and three distances.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.e10_ablations import VARIANTS
from repro.pipeline.availability import pgu_defines, squash_mask
from repro.workloads import get_workload, workload_names
from tests.confidence_oracle import frontend_rules

DISTANCES = (0, 4, 16)


@pytest.mark.parametrize(
    "hyperblocks", [True, False], ids=["hyperblock", "baseline"]
)
@pytest.mark.parametrize("workload", workload_names())
def test_rules_match_oracle(workload, hyperblocks):
    trace = get_workload(workload).trace(
        scale="tiny", hyperblocks=hyperblocks
    )
    for label, base in VARIANTS.items():
        for distance in DISTANCES:
            options = replace(base, distance=distance)
            context = f"{workload}/{label}/D={distance}"
            squash, defines, delay = frontend_rules(trace, options)
            mask = squash_mask(trace, options)
            if squash is None:
                assert mask is None, context
            else:
                assert mask.dtype == np.bool_, context
                assert mask.tolist() == squash, context
            d_idx, d_value, got_delay = pgu_defines(trace, options)
            assert got_delay == delay, context
            assert list(zip(d_idx.tolist(), d_value.tolist())) == defines, (
                context
            )
