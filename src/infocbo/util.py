"""Shared plumbing: reproducible RNG streams, seed derivation, the uniform
ball sampler, bit-identical fast reductions and row scaling, JSON helpers."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
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


def uniform_ball(rng: np.random.Generator, count: int, dim: int, radius: float):
    """count points drawn uniformly from the ball of the given radius around
    the origin in R^dim: all directions are drawn before all radii."""
    directions = rng.standard_normal((count, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=count) ** (1.0 / dim)
    return scale_rows(radii, directions)


def row_sum(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=-1), bit for bit, as column adds where that is faster.

    For 1 <= d <= 7 float64 columns numpy adds left to right from 0.0 (so an
    all -0.0 row sums to +0.0); from d = 8 its unrolled pairwise order
    differs, so those shapes, d = 0 and other dtypes go to np.sum.
    np.linalg.norm(a, axis=-1) is np.sqrt(row_sum(a * a)), bit for bit.
    """
    d = a.shape[-1]
    if not 1 <= d <= 7 or a.dtype != np.float64:
        return np.sum(a, axis=-1)
    total = a[..., 0] + 0.0
    for k in range(1, d):
        total += a[..., k]
    return total


def sq_norm(a: np.ndarray) -> np.ndarray:
    """row_sum(a * a), bit for bit: each column squared on its own and added
    in row_sum's order (a square is never -0.0, so the first needs no
    + 0.0). From d = 8 and for other dtypes it is row_sum(a * a)."""
    d = a.shape[-1]
    if not 1 <= d <= 7 or a.dtype != np.float64:
        return row_sum(a * a)
    total = a[..., 0] * a[..., 0]
    for k in range(1, d):
        total += a[..., k] * a[..., k]
    return total


def scale_rows(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """s[..., None] * a, bit for bit, for row factors s of shape a.shape[:-1].

    Computed one column at a time: numpy's broadcast along a short last axis
    runs its inner loop d elements at a time, which is several times slower.
    """
    out = np.empty(a.shape, np.result_type(s, a))
    for k in range(a.shape[-1]):
        np.multiply(s, a[..., k], out=out[..., k])
    return out


def agent_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-2), bit for bit, for (N, d) rows or (R, N, d) stacks.

    On a C-contiguous float64 array with d >= 2, numpy sums the agent axis
    row by row from 0.0, which is cumsum's order plus a final + 0.0 (that
    only turns a -0.0 total into +0.0). With d < 2 the agent axis is the
    contiguous one and numpy sums it pairwise, so that, N = 0, other layouts
    and other dtypes go to a.mean.
    """
    n, d = a.shape[-2:]
    if d < 2 or n == 0 or not a.flags.c_contiguous or a.dtype != np.float64:
        return a.mean(axis=-2)
    # for even d, coordinate pairs as complex128: a complex add is the two
    # float adds, so the bits are the same in half the passes
    pairs = a.view(np.complex128) if d % 2 == 0 else a
    # np.add.accumulate is np.cumsum's loop without its Python wrapper
    return (np.add.accumulate(pairs, axis=-2)[..., -1, :].view(np.float64) + 0.0) / n


def in_unit_interval(a: np.ndarray) -> bool:
    """Whether every entry of a lies in [0, 1]. A NaN entry makes both min
    and max NaN, so it fails, where `any(a < 0) or any(a > 1)` lets it pass."""
    return a.size == 0 or bool(a.min() >= 0 and a.max() <= 1)


def require_finite(error: type[Exception], **values) -> None:
    """Raise error naming the first value that is set but not a finite real.

    Range checks such as `value <= 0` are false for NaN, and JSON configs
    may carry NaN and Infinity, so parameters are checked for finiteness
    where they enter; the real-number rule (is_real) keeps a bool from
    passing as 0 or 1 and a string from failing later as a TypeError.
    """
    for name, value in values.items():
        if value is not None and not (is_real(value) and math.isfinite(value)):
            raise error(f"{name} must be finite and real, got {value!r}")


def is_real(value) -> bool:
    """The real-number rule: an int or a float, never a bool or a string."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def real_tuple(error: type[Exception], name: str, values) -> tuple[float, ...]:
    """values, a list or tuple of finite reals, as a tuple of floats. A bare
    string is refused, not read as its characters, and so is a lone number;
    the first entry that breaks the real-number rule is named name[i]."""
    if not isinstance(values, (list, tuple)):
        raise error(f"{name} must be a list of numbers, got {values!r}")
    require_finite(error, **{f"{name}[{i}]": v for i, v in enumerate(values)})
    return tuple(float(v) for v in values)


def is_whole(value) -> bool:
    """The whole-number rule: an int or an integral float (2.0 counts as 2),
    never a bool, a string or a non-finite float."""
    if not is_real(value):
        return False
    return isinstance(value, numbers.Integral) or float(value).is_integer()


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
