"""Hierarchical seed derivation.

Every random decision in an experiment is seeded from a single root seed
through a named path, e.g. derive_seed(root, "dataset", 3, "hmc", 0).
Child seeds are SHA-256 hashes of the path string truncated to 63 bits,
so they are stable across platforms, Python versions, and process
restarts, and statistically independent of each other.
"""

import hashlib


def derive_seed(root: int, *path: object) -> int:
    """Derive a child seed from a root seed and a path of labels.

    Args:
        root: the experiment root seed.
        path: any sequence of strings or integers naming the consumer.

    Returns:
        A deterministic integer in [0, 2**63).
    """
    key = "/".join([str(int(root))] + [str(p) for p in path])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
