"""Workload configs for the benchmark, generated from a workload seed.

Each workload is built from one committed file in `configs/`.  The default
seed returns that file as it is; any other seed draws the quadratic weights
and the perturbation amplitudes uniformly from a narrow generic range around
the committed values, so the shape of the problem (monomial table,
subdivision, record count) stays that of the committed file.

The benchmark runs each workload on its `bench_grid` of seeds, smaller than
the committed grid for the two both-route workloads, so that one round of
two `contactmorse run` calls fits a benchmark run; the Hamiltonian, the
integrator and every tolerance are those of the committed file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0

# Half-widths of the generic ranges: every drawn value is the committed value
# plus a uniform draw in [-width, +width], rounded to DIGITS decimals.
QUADRATIC_HALF_WIDTH = 0.005
AMPLITUDE_HALF_WIDTH = 0.00125
REEB_HALF_WIDTH = 0.0125
DIGITS = 4


@dataclass(frozen=True)
class Workload:
    committed: str  # path of the committed config, relative to the repo root
    bench_grid: dict | None = None  # the seed grid the benchmark runs; None: the committed one
    equal_weights: bool = False  # one drawn weight for every |z_j|^2 (Reeb flow)


WORKLOADS = {
    "sphere-generic": Workload(
        "configs/diag-0.3-0.7-eps0.05.json",
        bench_grid={"sphere_count": 32, "t_count": 32, "keep_per_seed": 4},
    ),
    "rp3-symmetric": Workload(
        "configs/rp3-sym-eps0.05.json",
        bench_grid={"sphere_count": 16, "t_count": 32, "keep_per_seed": 4},
    ),
    "reeb-continuum": Workload("configs/reeb-continuum.json", equal_weights=True),
}


def committed_text(name: str) -> str:
    return (ROOT / WORKLOADS[name].committed).read_text()


def draw_coefficients(name: str, seed: int, hamiltonian: dict):
    """(quadratic, amplitudes) of the workload at `seed`, drawn around the
    committed `hamiltonian`."""
    quad = list(hamiltonian["quadratic"])
    amps = [p["amplitude"] for p in hamiltonian.get("perturbations", [])]
    if seed == DEFAULT_SEED:
        return quad, amps
    rng = random.Random(f"{name}:{seed}")
    if WORKLOADS[name].equal_weights:
        c = round(quad[0] + rng.uniform(-REEB_HALF_WIDTH, REEB_HALF_WIDTH), DIGITS)
        quad = [c] * len(quad)
    else:
        quad = [
            round(c + rng.uniform(-QUADRATIC_HALF_WIDTH, QUADRATIC_HALF_WIDTH), DIGITS)
            for c in quad
        ]
    amps = [
        round(a + rng.uniform(-AMPLITUDE_HALF_WIDTH, AMPLITUDE_HALF_WIDTH), DIGITS)
        for a in amps
    ]
    return quad, amps


def config_text(name: str, seed: int = DEFAULT_SEED, grid: dict | None = None) -> str:
    """The config file of workload `name` at `seed`.  `grid` replaces the
    committed seed grid.  The default seed on the committed grid gives the
    committed file's text unchanged."""
    text = committed_text(name)
    config = json.loads(text)
    if seed == DEFAULT_SEED and grid in (None, config["seeds"]):
        return text
    ham = config["hamiltonian"]
    ham["quadratic"], amps = draw_coefficients(name, seed, ham)
    for term, amp in zip(ham.get("perturbations", []), amps):
        term["amplitude"] = amp
    if grid is not None:
        config["seeds"] = dict(grid)
    return json.dumps(config, indent=2) + "\n"


def bench_config_text(name: str, seed: int) -> str:
    """The config the benchmark runs: the seeded file on the bench grid."""
    return config_text(name, seed, WORKLOADS[name].bench_grid)
