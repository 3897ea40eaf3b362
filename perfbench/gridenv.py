"""Seeded R x C block-grid environments for the benchmark.

The grid has ``rows * cols`` traversable blocks.  Neighbouring blocks share a
facet; the start facet lies on the outer edge of the north-west block, the
pickup bay hangs off the south-east block and the dropoff bay off the
north-east block.  Every block carries a primitive for each ordered pair of
its facets, and each bay a single same-facet primitive, as in the bundled
city.

The seed picks each block's crossing rate, obstacle density and the offset
of its adversary window.  It never changes the window width, and it keeps
windows inside [1, 8] and densities inside [1, 8], so no loss probability is
ever exactly 0 or 1 outside the clean start block.  Every transition of the
model therefore has the same support for every seed: the state, choice and
transition counts depend on ``rows``, ``cols`` and ``width`` only, and the
seed moves only the probabilities.
"""

from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RATES = (0.091, 0.125, 0.128)
MU = 0.05
WINDOW_CEIL = 8
DENSITY_RANGE = (1, 8)


def _city_helpers():
    """The pmf and loss-curve helpers of ``scripts/make_city_env.py``."""
    spec = importlib.util.spec_from_file_location(
        "make_city_env", ROOT / "scripts" / "make_city_env.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_grid(rows: int, cols: int, width: int, seed: int) -> dict:
    """Environment document for a ``rows`` x ``cols`` grid, windows ``width`` wide."""
    city = _city_helpers()
    rng = random.Random(seed)
    block = [[f"b{r}_{c}" for c in range(cols)] for r in range(rows)]
    facets = {"fs": [block[0][0]]}
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                facets[f"h{r}_{c}"] = [block[r][c], block[r][c + 1]]
            if r + 1 < rows:
                facets[f"v{r}_{c}"] = [block[r][c], block[r + 1][c]]
    facets["fp"] = [block[rows - 1][cols - 1], "rp"]
    facets["fd"] = [block[0][cols - 1], "rd"]

    regions, primitives = [], []
    for r in range(rows):
        for c in range(cols):
            rid = block[r][c]
            if (r, c) == (0, 0):
                lo, hi, p_init, density = 0, width, city.point_pmf(0), 0
            else:
                lo = rng.randint(1, WINDOW_CEIL - width)
                hi = lo + width
                p_init, density = city.uniform_pmf(lo, hi), rng.randint(*DENSITY_RANGE)
            regions.append({
                "id": rid,
                "adversaries": {"min": lo, "max": hi, "p_init": p_init},
                "obstacles": {"max_level": density, "p_obs": city.point_pmf(density)},
                "mu_enter": MU,
                "mu_leave": MU,
            })
            rate = rng.choice(RATES)
            marginal_o = {str(k): city.obstacle_marginal(k) for k in range(density + 1)}
            mine = [fid for fid, bounds in facets.items() if rid in bounds]
            for src in mine:
                for dst in mine:
                    if src != dst:
                        primitives.append({
                            "from": src, "to": dst, "region": rid, "rate": rate,
                            "lost": {"marginal_n": "quadratic", "marginal_o": marginal_o},
                        })
    for rid, fid, label in (("rp", "fp", "pickup"), ("rd", "fd", "dropoff")):
        regions.append({
            "id": rid,
            "adversaries": {"min": 0, "max": 0, "p_init": city.point_pmf(0)},
            "obstacles": {"max_level": 0, "p_obs": city.point_pmf(0)},
            "mu_enter": MU,
            "mu_leave": MU,
            "labels": [label],
        })
        primitives.append({
            "from": fid, "to": fid, "region": rid, "rate": RATES[1],
            "lost": {"marginal_n": "quadratic", "marginal_o": {"0": 0.0}},
        })
    return {
        "name": f"grid{rows}x{cols}-w{width}-s{seed}",
        "notes": ["generated by perfbench/gridenv.py; the seed moves probabilities only"],
        "regions": regions,
        "facets": [{"id": fid, "regions": bounds} for fid, bounds in facets.items()],
        "primitives": primitives,
        "init": {"facet": "fs", "region": block[0][0]},
    }


def write_grid(path: Path, rows: int, cols: int, width: int, seed: int) -> Path:
    path.write_text(json.dumps(make_grid(rows, cols, width, seed), indent=1) + "\n")
    return path
