"""Deterministic RNG stream derivation.

Every run owns a single root seed. Components derive their own streams by
hashing (root, *labels), so adding a strategy or toggling an unrelated
option never reshuffles the randomness seen by an existing component.

Within a component, one stream may serve several parts in a fixed order.
Replay draws all of a session's old classes from one stream, in ascending
class order, so a class's replay draws depend on which old classes there
are; the session plan fixes that set.
"""

import hashlib

import numpy as np


def derive_seed(root: int, *labels) -> int:
    """Hash (root, *labels) into a stable 64-bit substream seed."""
    key = "/".join([str(int(root)), *(str(part) for part in labels)])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(root: int, *labels) -> np.random.Generator:
    return np.random.default_rng(derive_seed(root, *labels))
