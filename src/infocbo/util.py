"""Shared plumbing: reproducible RNG streams, seed derivation, the uniform
ball sampler, bit-identical fast reductions and row scaling, the rules of
config fields, JSON helpers."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
import os
from typing import Any, Callable, NamedTuple

import numpy as np

# Counter-based generator so replica streams are independent by construction.
GENERATOR_NAME = "numpy.random.Philox"


def require_seed(error: type[Exception], name: str, value) -> int:
    """int(value), or error naming value when it is not a whole number
    (int() would run 2.7 and True as 2 and 1, and "7" as 7) or lies outside
    [0, 2**64): read modulo 2**64 it would alias a seed inside (-1 as 2**64 - 1)."""
    if not is_whole(value):
        raise error(f"{name} must be a whole number, got {value!r}")
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise error(f"{name} must lie in [0, 2**64), got {value!r}")
    return seed


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox stream for a whole-number seed in [0, 2**64); any other is a ValueError."""
    return np.random.Generator(np.random.Philox(require_seed(ValueError, "seed", seed)))


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit seed for stream `index` under `master_seed`, both whole
    numbers in [0, 2**64) (else ValueError).

    BLAKE2b over the packed pair, so the derivation does not depend on
    platform word size or numpy version.
    """
    payload = (require_seed(ValueError, "seed", master_seed).to_bytes(8, "little")
               + require_seed(ValueError, "stream index", index).to_bytes(8, "little"))
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def uniform_ball(rng: np.random.Generator, count: int, dim: int, radius: float, out=None):
    """count points drawn uniformly from the ball of the given radius around the
    origin in R^dim, all directions before all radii; into out when it is given."""
    directions = rng.standard_normal((count, dim), out=out)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=count) ** (1.0 / dim)
    return scale_rows(radii, directions, out=directions)


def row_sum(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.sum(a, axis=-1), bit for bit, as column adds where that is faster;
    written into out when it is given.

    For 1 <= d <= 7 float64 columns numpy adds left to right from 0.0 (so an
    all -0.0 row sums to +0.0); from d = 8 its unrolled pairwise order
    differs, so those shapes, d = 0 and other dtypes go to np.sum.
    np.linalg.norm(a, axis=-1) is np.sqrt(row_sum(a * a)), bit for bit.
    """
    d = a.shape[-1]
    if not 1 <= d <= 7 or a.dtype != np.float64:
        return np.sum(a, axis=-1, out=out)
    total = np.add(a[..., 0], 0.0, out=out)
    for k in range(1, d):
        total += a[..., k]
    return total


def sq_norm(a: np.ndarray) -> np.ndarray:
    """row_sum(a * a), bit for bit, as a fresh array: each column squared on
    its own and added in row_sum's order (a square is never -0.0, so the
    first needs no + 0.0). From d = 8 and for other dtypes it is
    row_sum(a * a)."""
    d = a.shape[-1]
    if not 1 <= d <= 7 or a.dtype != np.float64:
        return row_sum(a * a)
    total = np.multiply(a[..., 0], a[..., 0])
    for k in range(1, d):
        total += a[..., k] * a[..., k]
    return total


def sq_dist(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sq_norm(a - c), bit for bit, for centers c that broadcast against a.

    For 1 <= d <= 7 float64 columns each column's difference is squared in
    place and added in sq_norm's order, with no difference array. From d = 8
    and for other dtypes np.sum's order follows the layout of a - c, so
    those build the difference as numpy lays it out.
    """
    d = a.shape[-1]
    if not 1 <= d <= 7 or np.result_type(a, c) != np.float64:
        return sq_norm(a - c)
    total = a[..., 0] - c[..., 0]
    total *= total
    for k in range(1, d):
        column = a[..., k] - c[..., k]
        column *= column
        total += column
    return total


def scale_rows(s: np.ndarray, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """s[..., None] * a, bit for bit, for row factors s of shape a.shape[:-1];
    written into out when it is given.

    Computed one column at a time: numpy's broadcast along a short last axis
    runs its inner loop d elements at a time, which is several times slower.
    The columns are written in order, so s may be out's last column: every
    other column is written from it before it is scaled in place.
    """
    if out is None:
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
        if value is not None and not is_finite_real(value):
            raise error(f"{name} must be finite and real, got {value!r}")


def is_real(value) -> bool:
    """The real-number rule: an int or a float, never a bool or a string."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def is_finite_real(value) -> bool:
    """The real-number rule, finite: an int past the float range (a JSON
    integer literal can be one) fails too."""
    try:
        return is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def is_whole(value) -> bool:
    """The whole-number rule: an int or an integral float (2.0 counts as 2),
    never a bool, a string or a non-finite float."""
    if not is_real(value):
        return False
    return isinstance(value, numbers.Integral) or float(value).is_integer()


class FieldKind(NamedTuple):
    """The rule of one kind of config field: the test a value passes, the
    one form it is stored in, the reason a value that fails is given, and
    for a list the kind of each entry."""

    accepts: Callable[[Any], bool]
    store: Callable[[Any], Any]
    reason: str
    entry: str | None = None


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple))  # a string's characters are no list


# Keyed on a field's annotation, which `from __future__ import annotations`
# keeps as its text; a field annotated `X | None` also takes None.
FIELD_KINDS = {
    "int": FieldKind(is_whole, int, "must be a whole number"),
    "float": FieldKind(is_finite_real, float, "must be finite and real"),
    "bool": FieldKind(lambda v: isinstance(v, bool), bool, "must be true or false"),
    "str": FieldKind(lambda v: isinstance(v, str), str, "must be a string"),
    "str | os.PathLike": FieldKind(lambda v: isinstance(v, (str, os.PathLike)), str,
                                   "must be a path"),
    "tuple[float, ...]": FieldKind(_is_list, tuple, "must be a list of numbers", "float"),
    "tuple[str, ...]": FieldKind(_is_list, tuple, "must be a list of strings", "str"),
}


def field_value(error: type[Exception], kind: str, name: str, value):
    """value in the one form a field of the FIELD_KINDS kind stores (2.0 as
    2, 1 as 1.0, a list as a tuple), or error "<name> <reason>, got <value>";
    a list names its first bad entry name[i]."""
    rule = FIELD_KINDS[kind]
    if not rule.accepts(value):
        raise error(f"{name} {rule.reason}, got {value!r}")
    if rule.entry is None:
        return rule.store(value)
    return tuple(field_value(error, rule.entry, f"{name}[{i}]", v) for i, v in enumerate(value))


def apply_field_rules(obj, error: type[Exception]) -> None:
    """Store each field of the frozen dataclass obj whose annotation names a
    FIELD_KINDS kind in that kind's form, or raise error for the first that
    breaks its rule. Other fields (nested configs) are left as they are."""
    for f in dataclasses.fields(obj):
        kind = f.type.removesuffix(" | None")
        if kind not in FIELD_KINDS:
            continue
        value = getattr(obj, f.name)
        if value is None and kind != f.type:
            continue
        object.__setattr__(obj, f.name, field_value(error, kind, f.name, value))


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
