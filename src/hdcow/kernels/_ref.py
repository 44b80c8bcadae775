"""Pure-Python reference implementation of the dead-time kernel.

Candidate clicks are produced vectorized upstream; this sequential scan
is the one hot loop that cannot be vectorized because each accepted
click blinds the detector for the following ``dead_slots`` slots.
"""

import numpy as np

BACKEND = "python"


def dead_time_filter(candidates, dead_slots, last_click=-(1 << 62)):
    """Drop candidate clicks falling inside a previous click's dead window.

    candidates: sorted int64 array of candidate click slot indices.
    dead_slots: width of the dead window; a click at slot s blocks all
        slots t with t - s <= dead_slots.
    last_click: slot of the most recent accepted click before this batch
        (carries detector state across frames).

    Returns ``(kept, last_click)`` with kept as an int64 array.  With no
    candidates, as in most frames of a long link, both come back at once:
    an empty array and ``last_click`` as given, which the scan would also
    return.
    """
    if not len(candidates):
        return np.empty(0, dtype=np.int64), int(last_click)
    kept = []
    last = last_click
    for c in candidates.tolist():
        if c - last > dead_slots:
            kept.append(c)
            last = c
    return np.array(kept, dtype=np.int64), int(last)
