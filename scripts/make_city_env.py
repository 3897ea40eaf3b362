#!/usr/bin/env python
"""Regenerate the bundled environment files.

The city map is a 13-region grid (eleven traversable blocks plus the pickup
and dropoff bays) with two adversary placements: case A concentrates strong
patrols on the blocks around both bays, case B spreads weaker patrols with a
moderate build-up in the southern corridor.  Topology, crossing rates and
obstacle densities are shared; only the adversary windows differ.

Obstacle densities and the density-to-loss curve are calibration choices,
picked so that the two placements give clearly separated mission values
(case B comfortably above case A).  After touching anything here, run
acceptance criterion 7 (``pytest tests/test_acceptance.py -k criterion_7``)
to confirm the separation still holds.
"""

from __future__ import annotations

import json
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "hostilemdp" / "data"

# density -> obstacle loss marginal; steep so only dense blocks are dangerous
OBSTACLE_CURVE_SCALE = 1.0
OBSTACLE_CURVE_POWER = 6
OBSTACLE_CURVE_PIVOT = 9


def obstacle_marginal(density: int) -> float:
    return min(1.0, OBSTACLE_CURVE_SCALE * (density / OBSTACLE_CURVE_PIVOT) ** OBSTACLE_CURVE_POWER)


#: region -> obstacle density (observed level is deterministic per block)
DENSITIES = {
    "r1": 0, "r2": 9, "r3": 9, "r4": 9, "r5": 1, "r6": 9,
    "r7": 9, "r8": 9, "r9": 9, "r10": 2, "r11": 3, "rp": 0, "rd": 0,
}

#: region -> mean crossing rate (slow blocks expose the vehicle longer)
RATES = {
    "r1": 0.128, "r5": 0.128,
    "r2": 0.125, "r4": 0.125, "r8": 0.125, "r9": 0.125, "r10": 0.125, "r11": 0.125,
    "r3": 0.091, "r6": 0.091, "r7": 0.091,
    "rp": 0.125, "rd": 0.125,
}

MU_ENTER = 0.05
MU_LEAVE = 0.05

#: facet -> the one or two regions it bounds (f1 is the outer start edge)
FACETS = {
    "f1": ["r1"],
    "f2": ["r1", "r4"],
    "f3": ["r1", "r2"],
    "f4": ["r2", "r3"],
    "f5": ["r3", "r4"],
    "f6": ["r3", "r6"],
    "f7": ["r7", "r8"],
    "f8": ["r4", "r7"],
    "f9": ["r8", "r9"],
    "f10": ["r6", "r9"],
    "f11": ["r6", "rp"],
    "f12": ["r9", "r10"],
    "f13": ["r10", "r5"],
    "f14": ["r5", "r11"],
    "f15": ["r10", "r11"],
    "f16": ["r11", "rd"],
    "f17": ["r2", "r6"],
}

#: region -> facet pairs a primitive can connect (directed)
PRIMITIVE_PAIRS = {
    "r1": [("f1", "f2"), ("f1", "f3"), ("f2", "f3"), ("f3", "f2")],
    "r2": "all",   # every ordered pair of its facets
    "r3": "all",
    "r4": "all",
    "r5": [("f13", "f14"), ("f14", "f13")],
    "r6": "all",
    "r7": [("f8", "f7"), ("f7", "f8")],
    "r8": [("f7", "f9"), ("f9", "f7")],
    "r9": "all",
    "r10": "all",
    "r11": "all",
    "rp": [("f11", "f11")],
    "rd": [("f16", "f16")],
}

REGION_ORDER = ["r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "rp", "rd"]

#: adversary window per region, per case (uniform initial belief over it)
WINDOWS_A = {
    "r1": (0, 2), "r2": (7, 9), "r3": (7, 9), "r4": (1, 3), "r5": (7, 9),
    "r6": (7, 9), "r7": (1, 3), "r8": (1, 3), "r9": (1, 3), "r10": (1, 3),
    "r11": (7, 9), "rp": (0, 0), "rd": (0, 0),
}
WINDOWS_B = {
    "r1": (0, 2), "r2": (2, 4), "r3": (2, 4), "r4": (2, 4), "r5": (2, 4),
    "r6": (2, 4), "r7": (2, 4), "r8": (2, 4), "r9": (4, 6), "r10": (4, 6),
    "r11": (2, 4), "rp": (0, 0), "rd": (0, 0),
}


def uniform_pmf(lo: int, hi: int) -> dict[str, str]:
    width = hi - lo + 1
    return {str(n): f"1/{width}" for n in range(lo, hi + 1)}


def point_pmf(at: int) -> dict[str, str]:
    return {str(at): "1"}


def region_facets(region: str) -> list[str]:
    return [fid for fid, bounds in FACETS.items() if region in bounds]


#: regions that start out clear of adversaries in both cases
CLEAR_REGIONS = {"r1", "rp", "rd"}


def make_region(rid: str, windows: dict) -> dict:
    lo, hi = windows[rid]
    density = DENSITIES[rid]
    p_init = point_pmf(0) if rid in CLEAR_REGIONS else uniform_pmf(lo, hi)
    obj = {
        "id": rid,
        "adversaries": {"min": lo, "max": hi, "p_init": p_init},
        "obstacles": {"max_level": density, "p_obs": point_pmf(density)},
        "mu_enter": MU_ENTER,
        "mu_leave": MU_LEAVE,
    }
    labels = []
    if rid == "rp":
        labels = ["pickup"]
    elif rid == "rd":
        labels = ["dropoff"]
    if labels:
        obj["labels"] = labels
    return obj


def make_primitives() -> list[dict]:
    prims = []
    for rid in REGION_ORDER:
        pairs = PRIMITIVE_PAIRS[rid]
        if pairs == "all":
            facets = region_facets(rid)
            pairs = [(a, b) for a in facets for b in facets if a != b]
        density = DENSITIES[rid]
        marginal_o = {str(k): obstacle_marginal(k) for k in range(density + 1)}
        for src, dst in pairs:
            prims.append({
                "from": src,
                "to": dst,
                "region": rid,
                "rate": RATES[rid],
                "lost": {"marginal_n": "quadratic", "marginal_o": marginal_o},
            })
    return prims


def make_city(name: str, windows: dict) -> dict:
    return {
        "name": name,
        "notes": [
            "city grid, eleven blocks plus pickup/dropoff bays",
            "obstacle density is deterministic per block",
            "assumed obstacle loss marginal: p_o(k) = min(1, (k/9)^6), so only the"
            " densest blocks (k = 9) are fully contested; the map gives no formula,"
            " only densities, and this choice makes survival hinge on the adversary"
            " windows inside those blocks",
            "adversary loss marginal is the standard 0.01*n^2 on 0..10",
        ],
        "regions": [make_region(rid, windows) for rid in REGION_ORDER],
        "facets": [{"id": fid, "regions": bounds} for fid, bounds in FACETS.items()],
        "primitives": make_primitives(),
        "init": {"facet": "f1", "region": "r1"},
    }


def make_corridor() -> dict:
    """Four regions in a line; small enough to inspect by hand."""
    flat = {"0": 0.0}
    mid_marginal = {"0": 0.0, "1": 0.1, "2": 0.3}
    return {
        "name": "corridor",
        "notes": ["start, one contested block, then the pickup and dropoff bays"],
        "regions": [
            {
                "id": "rs",
                "adversaries": {"min": 0, "max": 1, "p_init": point_pmf(0)},
                "obstacles": {"max_level": 0, "p_obs": point_pmf(0)},
                "mu_enter": 0.05, "mu_leave": 0.05,
            },
            {
                "id": "rm",
                "adversaries": {"min": 0, "max": 2,
                                "p_init": {"0": "1/3", "1": "1/3", "2": "1/3"}},
                "obstacles": {"max_level": 2, "p_obs": {"0": "1/2", "2": "1/2"}},
                "mu_enter": 0.05, "mu_leave": 0.05,
            },
            {
                "id": "rp",
                "adversaries": {"min": 0, "max": 0, "p_init": point_pmf(0)},
                "obstacles": {"max_level": 0, "p_obs": point_pmf(0)},
                "mu_enter": 0.05, "mu_leave": 0.05,
                "labels": ["pickup"],
            },
            {
                "id": "rd",
                "adversaries": {"min": 0, "max": 0, "p_init": point_pmf(0)},
                "obstacles": {"max_level": 0, "p_obs": point_pmf(0)},
                "mu_enter": 0.05, "mu_leave": 0.05,
                "labels": ["dropoff"],
            },
        ],
        "facets": [
            {"id": "f0", "regions": ["rs"]},
            {"id": "f1", "regions": ["rs", "rm"]},
            {"id": "f2", "regions": ["rm", "rp"]},
            {"id": "f3", "regions": ["rp", "rd"]},
        ],
        "primitives": [
            {"from": "f0", "to": "f1", "region": "rs", "rate": 0.128,
             "lost": {"marginal_n": "quadratic", "marginal_o": flat}},
            {"from": "f1", "to": "f0", "region": "rs", "rate": 0.128,
             "lost": {"marginal_n": "quadratic", "marginal_o": flat}},
            {"from": "f1", "to": "f2", "region": "rm", "rate": 0.091,
             "lost": {"marginal_n": "quadratic", "marginal_o": mid_marginal}},
            {"from": "f2", "to": "f1", "region": "rm", "rate": 0.091,
             "lost": {"marginal_n": "quadratic", "marginal_o": mid_marginal}},
            {"from": "f2", "to": "f3", "region": "rp", "rate": 0.125,
             "lost": {"marginal_n": "quadratic", "marginal_o": flat}},
            {"from": "f3", "to": "f2", "region": "rp", "rate": 0.125,
             "lost": {"marginal_n": "quadratic", "marginal_o": flat}},
            {"from": "f3", "to": "f3", "region": "rd", "rate": 0.125,
             "lost": {"marginal_n": "quadratic", "marginal_o": flat}},
        ],
        "init": {"facet": "f0", "region": "rs"},
    }


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    targets = {
        "city_caseA.json": make_city("city-caseA", WINDOWS_A),
        "city_caseB.json": make_city("city-caseB", WINDOWS_B),
        "corridor.json": make_corridor(),
    }
    for fname, payload in targets.items():
        path = DATA_DIR / fname
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
