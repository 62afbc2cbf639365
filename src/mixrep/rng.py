"""Deterministic random-stream management.

Every random choice in the package flows from one root seed, split into
named substreams (batch sampling, parameter init, episode generation, ...).
Streams use numpy's PCG64 keyed through SeedSequence; string path elements
are hashed with SHA-256 so a substream is stable across runs, platforms and
Python hash randomization.
"""

from __future__ import annotations

import numpy as np

from .config import check_at_least


def _path_entropy(path) -> list[int]:
    import hashlib  # loads OpenSSL, which a command that draws nothing need not pay for

    entropy = []
    for part in path:
        if isinstance(part, (int, np.integer)):
            entropy.append(int(part) & 0xFFFFFFFFFFFFFFFF)
        else:
            digest = hashlib.sha256(str(part).encode("utf-8")).digest()
            entropy.append(int.from_bytes(digest[:8], "big"))
    return entropy


def substream(seed: int, *path) -> np.random.Generator:
    """A generator for `path` under `seed`, independent of all other paths."""
    check_at_least("seed", seed, 0)
    entropy = [seed] + _path_entropy(path)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
