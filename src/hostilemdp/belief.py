"""Adversary-count beliefs and their update algebra.

A vehicle crossing a region keeps, for every adjacent region, a probability
distribution over how many adversaries that region currently holds.  The
distribution lives on an integer window inside the region's hard bounds and
is updated whenever an adversary is known to have entered or left the
neighbour.  All arithmetic is exact (``fractions.Fraction``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction


class UpdateNotAllowed(ValueError):
    """Raised when an update's precondition fails (point mass at a hard bound)."""


@dataclass(frozen=True)
class AdversaryBelief:
    """Distribution over adversary counts in one region.

    floor / ceil are the region's hard bounds on the count; ``start`` is the
    first count carrying mass and ``probs[i]`` the mass at ``start + i``.
    """

    floor: int
    ceil: int
    start: int
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.probs:
            raise ValueError("empty support")
        if not (self.floor <= self.start and self.end <= self.ceil):
            raise ValueError(
                f"support [{self.start}, {self.end}] outside bounds "
                f"[{self.floor}, {self.ceil}]"
            )
        if any(p < 0 for p in self.probs):
            raise ValueError("negative probability")
        if sum(self.probs) != 1:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, not 1")

    @property
    def end(self) -> int:
        """Last count carrying mass."""
        return self.start + len(self.probs) - 1

    @property
    def width(self) -> int:
        return self.end - self.start

    def pmf(self, count: int) -> Fraction:
        if self.start <= count <= self.end:
            return self.probs[count - self.start]
        return Fraction(0)

    def items(self):
        """(count, probability) pairs over the support, zeros skipped."""
        for i, p in enumerate(self.probs):
            if p:
                yield self.start + i, p

    def is_point_at_floor(self) -> bool:
        return self.start == self.end == self.floor

    def is_point_at_ceil(self) -> bool:
        return self.start == self.end == self.ceil

    def key(self) -> tuple:
        return (self.start, self.end, self.probs)


def expectation(belief: AdversaryBelief) -> Fraction:
    """Expected adversary count, exact."""
    return sum((Fraction(n) * p for n, p in belief.items()), Fraction(0))


def update_entered(belief: AdversaryBelief) -> AdversaryBelief:
    """Condition on one adversary having entered the region.

    Counts shift up by one.  Mass that would land above the hard ceiling is
    spread evenly over the shifted support instead, which shrinks the window
    by one.  Not allowed when the belief is already a point mass at the
    ceiling.
    """
    if belief.is_point_at_ceil():
        raise UpdateNotAllowed(f"no adversary can enter: count pinned at {belief.ceil}")
    if belief.end < belief.ceil:
        return AdversaryBelief(belief.floor, belief.ceil, belief.start + 1, belief.probs)
    # end == ceil: top mass cannot shift; redistribute it over the remaining window
    share = belief.probs[-1] / (belief.end - belief.start)
    probs = tuple(p + share for p in belief.probs[:-1])
    return AdversaryBelief(belief.floor, belief.ceil, belief.start + 1, probs)


def update_left(belief: AdversaryBelief) -> AdversaryBelief:
    """Condition on one adversary having left the region.

    Mirror image of :func:`update_entered`: counts shift down, and mass that
    would drop below the hard floor is spread evenly over the shifted support.
    """
    if belief.is_point_at_floor():
        raise UpdateNotAllowed(f"no adversary can leave: count pinned at {belief.floor}")
    if belief.start > belief.floor:
        return AdversaryBelief(belief.floor, belief.ceil, belief.start - 1, belief.probs)
    share = belief.probs[0] / (belief.end - belief.start)
    probs = tuple(p + share for p in belief.probs[1:])
    return AdversaryBelief(belief.floor, belief.ceil, belief.start, probs)


ENTERED = "+1"
LEFT = "-1"


@dataclass
class BeliefSet:
    """All beliefs reachable from an initial one, with the update graph.

    ``members[0]`` is the initial belief; ``edges[i]`` maps ENTERED / LEFT
    to the successor's position (absent when the update is not allowed).
    """

    members: list[AdversaryBelief]
    edges: list[dict[str, int]]
    max_redistributions: int

    def __len__(self) -> int:
        return len(self.members)


def enumerate_reachable(initial: AdversaryBelief, node_budget: int = 100_000) -> BeliefSet:
    """Breadth-first closure of an initial belief under both updates.

    Children are explored entered-first.  Termination is guaranteed (each
    redistribution shrinks the window, shifts only move it inside fixed
    bounds) but ``node_budget`` guards against construction bugs.
    """
    members = [initial]
    index = {initial.key(): 0}
    edges: list[dict[str, int]] = [{}]
    max_redist = 0
    queue = deque([0])
    while queue:
        pos = queue.popleft()
        belief = members[pos]
        max_redist = max(max_redist, initial.width - belief.width)
        for kind, op in ((ENTERED, update_entered), (LEFT, update_left)):
            try:
                nxt = op(belief)
            except UpdateNotAllowed:
                continue
            key = nxt.key()
            if key not in index:
                if len(members) >= node_budget:
                    raise RuntimeError(f"belief closure exceeded {node_budget} nodes")
                index[key] = len(members)
                members.append(nxt)
                edges.append({})
                queue.append(index[key])
            edges[pos][kind] = index[key]
    return BeliefSet(members, edges, max_redist)


def render_dot(bset: BeliefSet, name: str = "beliefs") -> str:
    """GraphViz rendering of a belief closure."""
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [shape=box, fontname=monospace];"]
    for i, b in enumerate(bset.members):
        vals = ", ".join(f"{n}: {p}" for n, p in zip(range(b.start, b.end + 1), b.probs))
        lines.append(f'  b{i} [label="[{b.start}..{b.end}]\\n{vals}"];')
    for i, kids in enumerate(bset.edges):
        for kind, j in sorted(kids.items()):
            style = "solid" if kind == ENTERED else "dashed"
            lines.append(f'  b{i} -> b{j} [label="{kind}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
