"""Small shared utilities that belong to no single subsystem."""

import json
from typing import Any

from repro.util.rng import seeded_rng, spawn_seed

__all__ = ["seeded_rng", "spawn_seed", "write_json"]


def write_json(path: str, payload: Any) -> None:
    """Write an artifact document: 2-space indent, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
