"""The ``numpy`` core: table kernels through the shared run scan.

Every table and local-pattern stream, on either fast core, replays
through one path: :func:`~repro.sim.fastcore.replay.replay_table`
groups the events by counter, splits them into runs and scans each
run's 2-bit counter function (:func:`~repro.sim.fastcore.replay.scan_runs`).
The ``numpy`` core differs from ``fast`` only in which kernels it takes.
"""

import numpy as np

from repro.sim.fastcore.kernels import TableKernel
from repro.sim.fastcore.replay import replay_table


def batch_supported(kernel) -> bool:
    """Does the numpy backend replay ``kernel``?  Table kernels only."""
    return isinstance(kernel, TableKernel)


def batch_replay(kernel, plan) -> np.ndarray:
    """Vectorised replay; mispredicted branch indices, ascending.

    Updates every counter the stream touches in ``kernel.table`` to the
    exact post-replay state, so warm-start and pickle behaviour match.
    """
    return replay_table(kernel, plan)
