"""Sampled observables of a simulation run and their CSV form."""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

CSV_COLUMNS = ("t", "rho", "I", "dist1inf", "norm2inf", "denomL1")


def _fmt(x: float) -> str:
    """Shortest round-trip decimal (<= 17 significant digits)."""
    return repr(float(x))


@dataclass
class Trajectory:
    """Columns: t, rho, I, distance to equilibrium (m=1), m=2 norm, denominator."""

    t: np.ndarray
    rho: np.ndarray
    I: np.ndarray
    dist1inf: np.ndarray
    norm2inf: np.ndarray
    denomL1: np.ndarray
    monitors: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.t)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(CSV_COLUMNS) + "\n")
        cols = [self.t, self.rho, self.I, self.dist1inf, self.norm2inf, self.denomL1]
        for row in zip(*cols):
            buf.write(",".join(_fmt(v) for v in row) + "\n")
        return buf.getvalue()
