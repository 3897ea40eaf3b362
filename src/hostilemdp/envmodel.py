"""Environment description: regions, facets, motion primitives, risk model.

An environment file is JSON with four top-level keys (``regions``, ``facets``,
``primitives``, ``init``).  Probabilities on the belief side (initial
adversary pmfs, obstacle pmfs, outcome pmfs) must be written as strings so
they parse to exact rationals; rates and loss probabilities are plain
numbers.  A ``comment`` key is allowed in any object and ignored, as is a
top-level ``notes`` list.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from .belief import AdversaryBelief

PICKUP = "pickup"
DROPOFF = "dropoff"

MAX_ADVERSARIES = 10


class EnvironmentFormatError(ValueError):
    """Raised when an environment file violates a structural invariant."""


def adversary_loss_marginal(count: int) -> float:
    """Probability that the on-board planner fails given ``count`` adversaries.

    Quadratic in the count, 0 at 0 and 1 at 10.  Counts outside [0, 10] are a
    domain error.
    """
    if not 0 <= count <= MAX_ADVERSARIES:
        raise ValueError(f"adversary count {count} outside [0, {MAX_ADVERSARIES}]")
    return 0.01 * count * count


def combine_lost_marginals(p_adversary: float, p_obstacle: float) -> float:
    """Joint loss probability from the two marginals.

    Returns exp(-sqrt(-log(p_a) - log(p_o))); when either marginal is zero
    the joint is zero (limit convention).  The inner sum is clamped at 0 so
    that a pair of exact ones cannot produce a negative radicand.
    """
    for p in (p_adversary, p_obstacle):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"marginal {p} outside [0, 1]")
    if p_adversary == 0.0 or p_obstacle == 0.0:
        return 0.0
    inner = -math.log(p_adversary) - math.log(p_obstacle)
    return math.exp(-math.sqrt(max(inner, 0.0)))


@dataclass(frozen=True)
class Region:
    id: str
    min_adversaries: int
    max_adversaries: int
    initial_belief: AdversaryBelief
    max_obstacle_level: int
    obstacle_pmf: dict[int, Fraction]
    mu_enter: float
    mu_leave: float
    labels: tuple[str, ...] = ()

    def obstacle_items(self):
        for level in range(self.max_obstacle_level + 1):
            p = self.obstacle_pmf.get(level, Fraction(0))
            if p:
                yield level, p


@dataclass(frozen=True)
class Facet:
    id: str
    regions: tuple[str, ...]


@dataclass(frozen=True)
class MotionPrimitive:
    """Directed facet-to-facet crossing of one region.

    ``lost`` maps every (count, obstacle level) the region admits to the
    probability of losing the vehicle when the crossing completes.
    ``outcomes`` is an optional pmf over exit facets for primitives whose
    endpoint is uncertain, naming each exit facet once; when absent the
    primitive always reaches ``to``.
    """

    from_facet: str
    to_facet: str
    region: str
    rate: float
    lost: dict[tuple[int, int], float]
    outcomes: tuple[tuple[str, float], ...] | None = None

    @property
    def name(self) -> str:
        return f"{self.from_facet}>{self.to_facet}"

    def exit_facets(self) -> tuple[tuple[str, float], ...]:
        if self.outcomes is None:
            return ((self.to_facet, 1.0),)
        return self.outcomes


@dataclass
class Environment:
    name: str
    regions: dict[str, Region]
    facets: dict[str, Facet]
    primitives: tuple[MotionPrimitive, ...]
    init_facet: str
    init_region: str
    warnings: list[str] = field(default_factory=list)

    def neighbors(self, region_id: str) -> tuple[str, ...]:
        """Adjacent regions, in declaration order."""
        return self.adjacency()[region_id]

    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Every region's adjacent regions, in declaration order, from one pass over the facets."""
        adjacent: dict[str, set[str]] = {rid: set() for rid in self.regions}
        for facet in self.facets.values():
            for rid in facet.regions:
                adjacent[rid].update(facet.regions)
        return {rid: tuple(r for r in self.regions if r in adjacent[rid] and r != rid)
                for rid in self.regions}

    def successor_region(self, facet_id: str, region_id: str) -> str:
        """Region entered when a crossing of ``region_id`` ends at ``facet_id``.

        The region on the other side of the facet; the same region when the
        facet lies on the outer boundary.
        """
        others = [r for r in self.facets[facet_id].regions if r != region_id]
        return others[0] if others else region_id

    def primitives_from(self, facet_id: str, region_id: str) -> tuple[MotionPrimitive, ...]:
        return tuple(
            p for p in self.primitives if p.from_facet == facet_id and p.region == region_id
        )


def build_lost_table(region: Region, marginal_n, marginal_o) -> dict[tuple[int, int], float]:
    """Tabulate the joint loss over the region's full (count, level) domain.

    Each marginal is either a mapping or a callable on the integer domain.
    """

    def at(marginal, x):
        return marginal(x) if callable(marginal) else marginal[x]

    table = {}
    for n in range(region.min_adversaries, region.max_adversaries + 1):
        for o in range(region.max_obstacle_level + 1):
            table[(n, o)] = combine_lost_marginals(at(marginal_n, n), at(marginal_o, o))
    return table


def scale_rates(env: Environment, factor: float) -> Environment:
    """Copy of the environment with every rate multiplied by ``factor``.

    Raises :class:`EnvironmentFormatError` when the factor takes a race
    total to infinity, or a nonzero rate to zero or a subnormal float: the
    builder's rate ratios would then overflow or lose precision, and the
    model would silently differ from the unscaled one.
    """
    regions = {
        rid: replace(r, mu_enter=r.mu_enter * factor, mu_leave=r.mu_leave * factor)
        for rid, r in env.regions.items()
    }
    prims = tuple(replace(p, rate=p.rate * factor) for p in env.primitives)
    scaled = replace(env, regions=regions, primitives=prims, facets=dict(env.facets),
                     warnings=list(env.warnings))
    _check_race_totals(scaled)
    pairs = [(f"region {rid!r} {name}", getattr(r, name), getattr(regions[rid], name))
             for rid, r in env.regions.items() for name in ("mu_enter", "mu_leave")]
    pairs += [(f"primitive {p.from_facet}->{p.to_facet} rate", p.rate, q.rate)
              for p, q in zip(env.primitives, prims)]
    for where, before, after in pairs:
        if before and not after >= sys.float_info.min:
            raise EnvironmentFormatError(
                f"{where}: {before!r} scaled by {factor!r} is {after!r}, below the "
                "normal float range")
    return scaled


# ---------------------------------------------------------------------------
# parsing


def _exact(raw, where: str) -> Fraction:
    """Parse an exact probability: decimal string, rational string, or int."""
    if isinstance(raw, bool) or isinstance(raw, float):
        raise EnvironmentFormatError(
            f"{where}: probability {raw!r} must be a string (exact), not a float"
        )
    try:
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise EnvironmentFormatError(f"{where}: cannot parse probability {raw!r}") from exc
    if not 0 <= value <= 1:
        raise EnvironmentFormatError(f"{where}: probability {value} outside [0, 1]")
    return value


def _number(raw, where: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise EnvironmentFormatError(f"{where}: expected a number, got {raw!r}")
    try:
        value = float(Fraction(raw)) if isinstance(raw, str) else float(raw)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise EnvironmentFormatError(f"{where}: cannot parse number {raw!r}") from exc
    if not math.isfinite(value):
        raise EnvironmentFormatError(f"{where}: number {raw!r} is not finite")
    return value


def _int(raw, where: str) -> int:
    """An integer, or a string holding one (JSON object keys are strings)."""
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, (int, str)) and not isinstance(raw, bool):
        try:
            return int(raw)
        except ValueError:
            pass
    raise EnvironmentFormatError(f"{where}: expected an integer, got {raw!r}")


def _object(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise EnvironmentFormatError(f"{where}: expected an object, got {type(raw).__name__}")
    return raw


def _list(raw, where: str) -> list:
    if not isinstance(raw, list):
        raise EnvironmentFormatError(f"{where}: expected a list, got {type(raw).__name__}")
    return raw


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    _object(obj, where)
    unknown = set(obj) - allowed - {"comment"}
    if unknown:
        raise EnvironmentFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise EnvironmentFormatError(f"{where}: missing keys {sorted(missing)}")


def _parse_region(obj: dict) -> Region:
    where = f"region {_object(obj, 'region').get('id', '?')!r}"
    _check_keys(
        obj,
        {"id", "adversaries", "obstacles", "mu_enter", "mu_leave", "labels"},
        {"id", "adversaries", "obstacles", "mu_enter", "mu_leave"},
        where,
    )
    adv = obj["adversaries"]
    _check_keys(adv, {"min", "max", "p_init"}, {"min", "max", "p_init"}, f"{where} adversaries")
    lo, hi = _int(adv["min"], f"{where} min"), _int(adv["max"], f"{where} max")
    if lo > hi:
        raise EnvironmentFormatError(f"{where}: adversary min {lo} > max {hi}")
    if lo < 0 or hi > MAX_ADVERSARIES:
        raise EnvironmentFormatError(
            f"{where}: adversary bounds [{lo}, {hi}] outside [0, {MAX_ADVERSARIES}]"
        )
    pmf = {_int(k, f"{where} p_init key"): _exact(v, f"{where} p_init[{k}]")
           for k, v in _object(adv["p_init"], f"{where} p_init").items()}
    if any(not lo <= n <= hi for n in pmf):
        raise EnvironmentFormatError(f"{where}: p_init support escapes [{lo}, {hi}]")
    if sum(pmf.values()) != 1:
        raise EnvironmentFormatError(f"{where}: p_init sums to {sum(pmf.values())}, not 1")
    support = sorted(n for n, p in pmf.items() if p)
    start, end = support[0], support[-1]
    probs = tuple(pmf.get(n, Fraction(0)) for n in range(start, end + 1))
    belief = AdversaryBelief(floor=lo, ceil=hi, start=start, probs=probs)

    obs = obj["obstacles"]
    _check_keys(obs, {"max_level", "p_obs"}, {"max_level", "p_obs"}, f"{where} obstacles")
    max_level = _int(obs["max_level"], f"{where} max_level")
    if max_level < 0:
        raise EnvironmentFormatError(f"{where}: negative obstacle max_level")
    opmf = {_int(k, f"{where} p_obs key"): _exact(v, f"{where} p_obs[{k}]")
            for k, v in _object(obs["p_obs"], f"{where} p_obs").items()}
    if any(not 0 <= o <= max_level for o in opmf):
        raise EnvironmentFormatError(f"{where}: p_obs support escapes [0, {max_level}]")
    if sum(opmf.values()) != 1:
        raise EnvironmentFormatError(f"{where}: p_obs sums to {sum(opmf.values())}, not 1")

    labels = set(_list(obj.get("labels", []), f"{where} labels"))
    if not labels <= {PICKUP, DROPOFF}:
        raise EnvironmentFormatError(f"{where}: unknown labels {sorted(labels - {PICKUP, DROPOFF})}")
    mu_enter = _number(obj["mu_enter"], f"{where} mu_enter")
    mu_leave = _number(obj["mu_leave"], f"{where} mu_leave")
    if mu_enter < 0 or mu_leave < 0:
        raise EnvironmentFormatError(f"{where}: negative adversary rate")
    return Region(
        id=str(obj["id"]),
        min_adversaries=lo,
        max_adversaries=hi,
        initial_belief=belief,
        max_obstacle_level=max_level,
        obstacle_pmf=opmf,
        mu_enter=mu_enter,
        mu_leave=mu_leave,
        labels=tuple(sorted(labels)),
    )


def _parse_lost(obj, region: Region, where: str,
                tables: dict[tuple, dict[tuple[int, int], float]]) -> dict[tuple[int, int], float]:
    """The loss table of one primitive.

    A table built from marginals is kept in ``tables`` under the region's
    window and the parsed marginals, and primitives with the same ones share it.
    """
    _check_keys(obj, {"marginal_n", "marginal_o", "table"}, set(), where)
    if "table" in obj:
        if "marginal_n" in obj or "marginal_o" in obj:
            raise EnvironmentFormatError(f"{where}: give either a table or marginals, not both")
        table = {}
        for n_key, row in _object(obj["table"], f"{where} table").items():
            for o_key, value in _object(row, f"{where} table[{n_key}]").items():
                key = (_int(n_key, f"{where} table key"), _int(o_key, f"{where} table key"))
                table[key] = _number(value, f"{where} table[{n_key}][{o_key}]")
        return _checked_lost(table, region, where)
    if "marginal_n" not in obj or "marginal_o" not in obj:
        raise EnvironmentFormatError(f"{where}: both marginals are required")

    def marginal(spec, label):
        if spec == "quadratic":
            return spec, adversary_loss_marginal
        if isinstance(spec, dict):
            parsed = {_int(k, f"{where} {label} key"): _number(v, f"{where} {label}[{k}]")
                      for k, v in spec.items()}
            return tuple(sorted(parsed.items())), parsed
        raise EnvironmentFormatError(f"{where}: bad {label} spec {spec!r}")

    (n_spec, marginal_n), (o_spec, marginal_o) = (
        marginal(obj["marginal_n"], "marginal_n"), marginal(obj["marginal_o"], "marginal_o"))
    spec = (region.min_adversaries, region.max_adversaries, region.max_obstacle_level,
            n_spec, o_spec)
    if spec not in tables:
        try:
            table = build_lost_table(region, marginal_n, marginal_o)
        except KeyError as exc:
            raise EnvironmentFormatError(f"{where}: marginal missing value at {exc}") from exc
        tables[spec] = _checked_lost(table, region, where)
    return tables[spec]


def _checked_lost(table: dict[tuple[int, int], float], region: Region,
                  where: str) -> dict[tuple[int, int], float]:
    for (n, o), p in table.items():
        if not 0.0 <= p <= 1.0:
            raise EnvironmentFormatError(f"{where}: loss probability {p} at ({n}, {o})")
    # stops at the first hole, so a huge max_level costs no more than the table's size
    for n in range(region.min_adversaries, region.max_adversaries + 1):
        for o in range(region.max_obstacle_level + 1):
            if (n, o) not in table:
                raise EnvironmentFormatError(
                    f"{where}: loss table has no entry for (count, level) {(n, o)}")
    return table


def parse_environment(data: dict, name: str = "environment") -> Environment:
    """Build and validate an Environment from already-decoded JSON.

    Every malformed document raises :class:`EnvironmentFormatError`; a type
    or shape error that no specific check names is reported with its cause.
    """
    try:
        return _parse_document(data, name)
    except EnvironmentFormatError:
        raise
    except (TypeError, ValueError, AttributeError, KeyError) as exc:
        raise EnvironmentFormatError(
            f"malformed environment ({type(exc).__name__}: {exc})") from exc


def _parse_document(data: dict, name: str) -> Environment:
    _check_keys(
        data, {"name", "regions", "facets", "primitives", "init", "notes"},
        {"regions", "facets", "primitives", "init"}, "environment",
    )
    name = str(data.get("name", name))

    regions: dict[str, Region] = {}
    for obj in _list(data["regions"], "regions"):
        region = _parse_region(obj)
        if region.id in regions:
            raise EnvironmentFormatError(f"duplicate region id {region.id!r}")
        regions[region.id] = region

    facets: dict[str, Facet] = {}
    for obj in _list(data["facets"], "facets"):
        where = f"facet {_object(obj, 'facet').get('id', '?')!r}"
        _check_keys(obj, {"id", "regions"}, {"id", "regions"}, where)
        fid = str(obj["id"])
        if fid in facets:
            raise EnvironmentFormatError(f"duplicate facet id {fid!r}")
        bounded = tuple(str(r) for r in _list(obj["regions"], f"{where} regions"))
        if not 1 <= len(bounded) <= 2 or len(set(bounded)) != len(bounded):
            raise EnvironmentFormatError(f"facet {fid!r}: must bound one or two distinct regions")
        for rid in bounded:
            if rid not in regions:
                raise EnvironmentFormatError(f"facet {fid!r}: unknown region {rid!r}")
        facets[fid] = Facet(fid, bounded)

    for label in (PICKUP, DROPOFF):
        tagged = [r.id for r in regions.values() if label in r.labels]
        if len(tagged) != 1:
            raise EnvironmentFormatError(
                f"exactly one region must carry the {label!r} label, found {tagged}"
            )

    prims = []
    tables: dict[tuple, dict[tuple[int, int], float]] = {}
    for obj in _list(data["primitives"], "primitives"):
        _object(obj, "primitive")
        where = f"primitive {obj.get('from', '?')}->{obj.get('to', '?')}"
        _check_keys(
            obj, {"from", "to", "region", "rate", "lost", "outcomes"},
            {"from", "to", "region", "rate", "lost"}, where,
        )
        src, dst, rid = str(obj["from"]), str(obj["to"]), str(obj["region"])
        for fid in (src, dst):
            if fid not in facets:
                raise EnvironmentFormatError(f"{where}: unknown facet {fid!r}")
        if rid not in regions:
            raise EnvironmentFormatError(f"{where}: unknown region {rid!r}")
        for fid in (src, dst):
            if rid not in facets[fid].regions:
                raise EnvironmentFormatError(f"{where}: facet {fid!r} does not bound {rid!r}")
        if src == dst and not {PICKUP, DROPOFF} & set(regions[rid].labels):
            raise EnvironmentFormatError(
                f"{where}: same-facet primitives are only allowed at pick-up/drop-off regions"
            )
        rate = _number(obj["rate"], f"{where} rate")
        if rate <= 0:
            raise EnvironmentFormatError(f"{where}: rate must be positive, got {rate}")
        lost = _parse_lost(obj["lost"], regions[rid], f"{where} lost", tables)
        outcomes = None
        if "outcomes" in obj:
            # a facet named twice gets the exact sum of its shares, in its first place
            shares: dict[str, Fraction] = {}
            for out in _list(obj["outcomes"], f"{where} outcomes"):
                _check_keys(out, {"facet", "p"}, {"facet", "p"}, f"{where} outcome")
                ofid = str(out["facet"])
                if ofid not in facets:
                    raise EnvironmentFormatError(f"{where}: unknown outcome facet {ofid!r}")
                if rid not in facets[ofid].regions:
                    raise EnvironmentFormatError(
                        f"{where}: outcome facet {ofid!r} does not bound {rid!r}"
                    )
                p = _exact(out["p"], f"{where} outcome {ofid!r}")
                shares[ofid] = shares.get(ofid, Fraction(0)) + p
            total = sum(shares.values(), Fraction(0))
            if total != 1:
                raise EnvironmentFormatError(f"{where}: outcome pmf sums to {total}, not 1")
            outcomes = tuple((ofid, float(p)) for ofid, p in shares.items())
        prims.append(MotionPrimitive(src, dst, rid, rate, lost, outcomes))

    init = data["init"]
    _check_keys(init, {"facet", "region"}, {"facet", "region"}, "init")
    init_facet, init_region = str(init["facet"]), str(init["region"])
    if init_facet not in facets:
        raise EnvironmentFormatError(f"init: unknown facet {init_facet!r}")
    if init_region not in regions:
        raise EnvironmentFormatError(f"init: unknown region {init_region!r}")
    if init_region not in facets[init_facet].regions:
        raise EnvironmentFormatError(
            f"init: facet {init_facet!r} does not bound region {init_region!r}"
        )
    start = regions[init_region]
    if not start.initial_belief.pmf(0) == 1:
        raise EnvironmentFormatError("init: initial region must have no adversaries (p_init(0) = 1)")
    if not start.obstacle_pmf.get(0, Fraction(0)) == 1:
        raise EnvironmentFormatError("init: initial region must have no obstacles (p_obs(0) = 1)")

    env = Environment(
        name=name,
        regions=regions,
        facets=facets,
        primitives=tuple(prims),
        init_facet=init_facet,
        init_region=init_region,
    )
    _check_race_totals(env)

    reachable = _facet_reachable_regions(env)
    for rid in regions:
        if rid not in reachable:
            env.warnings.append(f"region {rid!r} is unreachable from the initial facet")
    return env


def _check_race_totals(env: Environment):
    """Refuse primitives whose race total can overflow.

    The MDP build divides every event rate by the race total: the crossing
    rate plus the leaving rate plus the entering rate of the expected influx.
    """
    incoming = {rid: sum(env.regions[r].max_adversaries for r in adjacent)
                for rid, adjacent in env.adjacency().items()}
    for prim in env.primitives:
        region = env.regions[prim.region]
        bound = (prim.rate + region.mu_leave * region.max_adversaries
                 + region.mu_enter * incoming[prim.region])
        if not math.isfinite(bound):
            raise EnvironmentFormatError(
                f"primitive {prim.from_facet}->{prim.to_facet}: rate {prim.rate!r} with region "
                f"{prim.region!r} mu_leave {region.mu_leave!r} and mu_enter {region.mu_enter!r} "
                f"overflows the total event rate")


def _facet_reachable_regions(env: Environment) -> set[str]:
    leaving: dict[tuple[str, str], list[MotionPrimitive]] = {}
    for prim in env.primitives:
        leaving.setdefault((prim.from_facet, prim.region), []).append(prim)
    seen_states = {(env.init_facet, env.init_region)}
    seen_regions = {env.init_region}
    stack = [(env.init_facet, env.init_region)]
    while stack:
        facet, region = stack.pop()
        for prim in leaving.get((facet, region), ()):
            for exit_facet, _ in prim.exit_facets():
                succ = (exit_facet, env.successor_region(exit_facet, region))
                seen_regions.add(succ[1])
                if succ not in seen_states:
                    seen_states.add(succ)
                    stack.append(succ)
    return seen_regions


def load_environment(path: str | Path) -> Environment:
    """Load, parse and validate an environment JSON file, read as UTF-8."""
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise EnvironmentFormatError(f"{path}: not valid JSON ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise EnvironmentFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    return parse_environment(data, name=path.stem)
