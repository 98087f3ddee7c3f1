"""The three workloads and the inputs each makes from its seed.

A round is the workload's seeded panels, then its fault panel if it has
one.  The seeded panels are in mean units.  A fault panel is a fixed
panel in Table 1's raw units, the same for every seed, on which deakit's
`OPT_TOL` fault gives the same wrong rows every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from panels import Panel, generate

WORK = Path(__file__).resolve().parent.parent / ".perfbench"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int            # DMUs per panel
    panels: int       # seeded panels per round
    vrs: bool
    path: str         # "cli-process", "cli" (in-process) or "api"
    fault_seed: Optional[int]  # generator seed of the raw-unit fault panel


WORKLOADS = {w.name: w for w in (
    Workload("paper11-cli", 11, 1, False, "cli-process", 9),
    Workload("panel1000-crs", 1000, 1, False, "cli", None),
    Workload("batch30-vrs", 30, 100, True, "api", 5),
)}


@dataclass(frozen=True)
class Inputs:
    panels: list[Panel]     # seeded panels, then any fault panel
    paths: list[Path]
    warmup: Path            # a small panel for the one warm-up report


def input_dir(w: Workload, seed: int) -> Path:
    return WORK / "inputs" / f"{w.name}-seed{seed}"


def make_inputs(w: Workload, seed: int, directory: Path) -> Inputs:
    """Generate the workload's panels from `seed` and write them as CSV."""
    rng = np.random.default_rng(seed)
    panels = [generate(f"seed{i:03d}", w.n, rng, raw=False)
              for i in range(w.panels)]
    if w.fault_seed is not None:
        panels.append(generate("fault", w.n,
                               np.random.default_rng(w.fault_seed), raw=True))
    warmup = generate("warmup", 11, rng, raw=False)
    directory.mkdir(parents=True, exist_ok=True)
    return Inputs(panels, [p.write(directory) for p in panels],
                  warmup.write(directory))


def report_args(w: Workload, path: Path) -> list[str]:
    args = ["report", "--input", str(path), "--format", "json"]
    return args + (["--rts", "vrs"] if w.vrs else [])
