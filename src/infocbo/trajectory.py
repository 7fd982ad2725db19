"""Recorded time series of a particle run, plus its CSV form.

The CSV layout is part of the reproducibility contract: header row, then one
row per recorded time with every float printed to 17 significant digits, so
identical runs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .util import format_float

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .sde import Ensemble


class RecordError(ValueError):
    """Inconsistent trajectory record."""


@dataclass
class Snapshot:
    """Full ensemble state at one time, with the consensus fields used there.

    f_val is None for auxiliary-mode runs (no consensus term).
    """

    ensemble: "Ensemble"
    f_val: np.ndarray | None
    e_val: np.ndarray


@dataclass
class TrajectoryRecord:
    """Per-stride statistics of one run.

    mass_ball maps each configured radius to the time series of empirical
    mass in the open ball of that radius around the origin. consensus_point
    is None in auxiliary mode. lambda_min / lambda_max are global extremes
    over every step taken, not only recorded ones.
    """

    times: np.ndarray
    m2_sq: np.ndarray
    mean_x: np.ndarray
    mean_lambda: np.ndarray
    mass_ball: dict[float, np.ndarray]
    consensus_point: np.ndarray | None
    clamp_events: int
    mode: str
    lambda_min: float
    lambda_max: float
    snapshots: list[Snapshot] | None = None

    def __post_init__(self) -> None:
        rows = len(self.times)
        if rows == 0:
            raise RecordError("record must contain at least the initial time")
        if np.any(np.diff(self.times) <= 0):
            raise RecordError("recorded times must be strictly increasing")
        for name in ("m2_sq", "mean_lambda"):
            if len(getattr(self, name)) != rows:
                raise RecordError(f"{name} length does not match times")
        if self.mean_x.shape[0] != rows:
            raise RecordError("mean_x length does not match times")
        if self.consensus_point is not None and self.consensus_point.shape[0] != rows:
            raise RecordError("consensus_point length does not match times")
        for radius, series in self.mass_ball.items():
            if len(series) != rows:
                raise RecordError(f"mass_ball[{radius}] length does not match times")

    @property
    def dimension(self) -> int:
        return self.mean_x.shape[1]

    def column_names(self) -> list[str]:
        names = ["time", "m2_sq"]
        names += [f"mean_x_{k}" for k in range(self.dimension)]
        names.append("mean_lambda")
        names += [f"mass_ball_{format_float(r)}" for r in sorted(self.mass_ball)]
        if self.consensus_point is not None:
            names += [f"consensus_{k}" for k in range(self.dimension)]
        return names

    def to_csv(self) -> str:
        columns = [self.times, self.m2_sq, self.mean_x, self.mean_lambda]
        columns += [self.mass_ball[r] for r in sorted(self.mass_ball)]
        if self.consensus_point is not None:
            columns.append(self.consensus_point)
        table = np.column_stack(columns)
        # the format of util.format_float, every row in one % call
        row = ",".join(["%.17g"] * table.shape[1]) + "\n"
        rows = (row * table.shape[0]) % tuple(table.ravel().tolist())
        return ",".join(self.column_names()) + "\n" + rows
