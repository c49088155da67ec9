"""Sampled observables of a simulation run and their CSV columns."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CSV_COLUMNS = ("t", "rho", "I", "dist1inf", "norm2inf", "denomL1")


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
