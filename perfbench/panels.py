"""Seeded input panels with the six indicators of the paper's Table 1.

Every column is drawn as a lognormal whose mean and standard deviation
match Table 1, then clipped to Table 1's min and max.  The generator is
the benchmark's own: deakit's `synthesize_matching` is never used, so a
change to the program cannot change the inputs it is measured on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (name, role, max, min, mean, sd), as printed in Table 1 of the paper
TABLE1 = (
    ("personnel", "in", 820.4, 94.2, 309.31, 211.05),
    ("fishing_vessels", "in", 59057.0, 543.0, 26382.3, 20126.2),
    ("berths", "in", 1392.0, 53.0, 430.27, 415.66),
    ("hotel_rooms", "in", 140252.0, 16850.0, 67469.09, 36289.46),
    ("gross_ocean_product", "out+", 9191.1, 613.8, 4136.0, 2625.9),
    ("waste_water", "out-", 246298.5, 6820.12, 123002.84, 74293.07),
)
N_IN, N_GOOD, N_BAD = 4, 1, 1
HEADER = "dmu," + ",".join(f"{role}:{name}"
                           for name, role, *_ in TABLE1) + "\n"


@dataclass(frozen=True, eq=False)
class Panel:
    """One generated panel: `values` is DMU-by-indicator, Table 1 order.

    `raw` panels are in Table 1's own units.  The others are in units of
    each column's Table 1 mean, which leaves every DEA score unchanged.
    """

    key: str
    values: np.ndarray
    raw: bool

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def names(self) -> list[str]:
        return [f"d{i:04d}" for i in range(self.n)]

    @property
    def X(self) -> np.ndarray:
        return self.values[:, :N_IN].T

    @property
    def Yg(self) -> np.ndarray:
        return self.values[:, N_IN:N_IN + N_GOOD].T

    @property
    def Yb(self) -> np.ndarray:
        return self.values[:, N_IN + N_GOOD:].T

    def csv(self) -> str:
        lines = [HEADER]
        for name, row in zip(self.names, self.values):
            lines.append(name + "," + ",".join(repr(float(v)) for v in row)
                         + "\n")
        return "".join(lines)

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.key}.csv"
        path.write_text(self.csv())
        return path


def generate(key: str, n: int, rng: np.random.Generator, raw: bool) -> Panel:
    cols = []
    for _name, _role, hi, lo, mean, sd in TABLE1:
        sigma2 = np.log1p((sd / mean) ** 2)
        col = np.clip(rng.lognormal(np.log(mean) - sigma2 / 2,
                                    np.sqrt(sigma2), n), lo, hi)
        cols.append(col if raw else col / mean)
    return Panel(key, np.column_stack(cols), raw)
