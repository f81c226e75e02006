"""Deterministic sub-seed derivation.

All randomness in a run flows from one root seed.  Each consumer derives its
own stream from (root, phase, *indices) so that adding a phase, a round, or a
fold never perturbs the draws of any other consumer.
"""

from __future__ import annotations

import numpy as np

# phase numbers enter every derived seed, so a retired number is never reused
# (retired: 2, 3, 5)
NEGATIVES = 1
FOLDS = 4


def subseed(root: int, *path: int) -> int:
    """A stable 64-bit seed for the stream identified by (root, *path)."""
    words = np.random.SeedSequence([int(root), *(int(p) for p in path)]).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)
