"""Shared plumbing: reproducible RNG streams, seed derivation, JSON helpers."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Any

import numpy as np

# Counter-based generator so replica streams are independent by construction.
GENERATOR_NAME = "numpy.random.Philox"

_MASK64 = 0xFFFFFFFFFFFFFFFF


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox stream for a 64-bit seed."""
    return np.random.Generator(np.random.Philox(int(seed) & _MASK64))


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit seed for stream `index` under `master_seed`.

    BLAKE2b over the packed pair, so the derivation does not depend on
    platform word size or numpy version.
    """
    payload = (int(master_seed) & _MASK64).to_bytes(8, "little") + (
        int(index) & _MASK64
    ).to_bytes(8, "little")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def require_finite(error: type[Exception], **values) -> None:
    """Raise error naming the first value that is set but not a finite real.

    Range checks such as `value <= 0` are false for NaN, and JSON configs
    may carry NaN and Infinity, so parameters are checked for finiteness
    where they enter.
    """
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise error(f"{name} must be finite, got {value!r}")


def format_float(x: float) -> str:
    """Locale-independent decimal form with 17 significant digits."""
    return format(float(x), ".17g")


def jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses / numpy values into JSON-safe types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj
