"""The ``numpy`` core: table predictors through the shared run scan.

Every table and local-pattern stream, on either fast core, replays
through one path: :func:`~repro.sim.fastcore.replay.replay_table`
groups the events by counter, splits them into runs and scans each
run's 2-bit counter function (:func:`~repro.sim.fastcore.replay.scan_runs`).
The ``numpy`` core differs from ``fast`` only in which predictors it
takes.
"""

import numpy as np

from repro.sim.fastcore.kernels import TABLE_CLASSES
from repro.sim.fastcore.replay import replay_table


def batch_supported(predictor) -> bool:
    """Does the numpy backend replay ``predictor``?  Bimodal, gshare,
    gselect and GAg only (exact classes)."""
    return type(predictor) in TABLE_CLASSES


def batch_replay(predictor, plan) -> np.ndarray:
    """Vectorised replay; mispredicted branch indices, ascending.

    Updates every counter the stream touches in
    ``predictor.counters.table`` to the exact post-replay state.
    """
    return replay_table(predictor, plan)
