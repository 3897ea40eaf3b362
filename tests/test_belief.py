"""Belief updates and closure enumeration, checked against a dict oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import belief_as_dict, closure_oracle, shift_oracle
from hostilemdp.belief import (
    ENTERED,
    LEFT,
    AdversaryBelief,
    UpdateNotAllowed,
    enumerate_reachable,
    expectation,
    render_dot,
    update_entered,
    update_left,
)

F = Fraction


def tenths(*ns):
    return tuple(F(n, 10) for n in ns)


#: distribution over counts 2..6 with a hole at 5; both children are known
ROOT = AdversaryBelief(floor=2, ceil=6, start=2, probs=tenths(2, 1, 3, 0, 4))


class TestKnownValues:
    def test_entered_child_exact(self):
        child = update_entered(ROOT)
        assert child == AdversaryBelief(2, 6, 3, tenths(3, 2, 4, 1))

    def test_left_child_exact(self):
        child = update_left(ROOT)
        assert child == AdversaryBelief(2, 6, 2, (F(3, 20), F(7, 20), F(1, 20), F(9, 20)))

    def test_expectation_exact(self):
        b = AdversaryBelief(2, 4, 2, (F(3, 5), F(1, 5), F(1, 5)))
        assert expectation(b) == F(13, 5)
        assert expectation(ROOT) == F(2) * F(2, 10) + F(3, 10) + F(4) * F(3, 10) + F(6) * F(4, 10)

    def test_uniform3_closure(self):
        u = AdversaryBelief(0, 2, 0, (F(1, 3),) * 3)
        bset = enumerate_reachable(u)
        assert len(bset) == 6
        half = (F(1, 2), F(1, 2))
        # breadth-first, entered before left
        assert bset.members == [
            u,
            AdversaryBelief(0, 2, 1, half),
            AdversaryBelief(0, 2, 0, half),
            AdversaryBelief(0, 2, 2, (F(1),)),
            AdversaryBelief(0, 2, 0, (F(1),)),
            AdversaryBelief(0, 2, 1, (F(1),)),
        ]
        assert bset.edges[0].get(ENTERED) == 1
        assert bset.edges[0].get(LEFT) == 2
        assert bset.edges[3].get(ENTERED) is None
        assert bset.max_redistributions == 2

    def test_point_masses_refuse_impossible_updates(self):
        at_ceil = AdversaryBelief(0, 3, 3, (F(1),))
        at_floor = AdversaryBelief(1, 3, 1, (F(1),))
        with pytest.raises(UpdateNotAllowed):
            update_entered(at_ceil)
        with pytest.raises(UpdateNotAllowed):
            update_left(at_floor)
        # the mirror updates stay legal
        assert update_left(at_ceil).start == 2
        assert update_entered(at_floor).start == 2

    def test_render_dot_mentions_every_member(self):
        bset = enumerate_reachable(AdversaryBelief(0, 2, 0, (F(1, 3),) * 3))
        dot = render_dot(bset)
        for i in range(len(bset)):
            assert f"b{i}" in dot


@st.composite
def beliefs(draw):
    floor = draw(st.integers(0, 3))
    ceil = floor + draw(st.integers(0, 5))
    start = draw(st.integers(floor, ceil))
    end = draw(st.integers(start, ceil))
    weights = draw(st.lists(st.integers(0, 9), min_size=end - start + 1,
                            max_size=end - start + 1))
    weights[0] = weights[0] or 1
    weights[-1] = weights[-1] or 1
    total = sum(weights)
    return AdversaryBelief(floor, ceil, start, tuple(F(w, total) for w in weights))


class TestProperties:
    @given(beliefs())
    def test_updates_match_oracle_and_keep_unit_mass(self, b):
        for update, delta in ((update_entered, 1), (update_left, -1)):
            try:
                child = update(b)
            except UpdateNotAllowed:
                with pytest.raises(ValueError):
                    shift_oracle(belief_as_dict(b), b.floor, b.ceil, delta)
                continue
            assert sum(child.probs) == 1
            assert b.floor <= child.start <= child.end <= b.ceil
            assert belief_as_dict(child) == shift_oracle(
                belief_as_dict(b), b.floor, b.ceil, delta)

    @given(beliefs())
    def test_pure_shifts_are_inverse(self, b):
        if b.end < b.ceil:
            assert update_left(update_entered(b)) == b
        if b.start > b.floor:
            assert update_entered(update_left(b)) == b

    @given(beliefs())
    @settings(deadline=None)
    def test_closure_terminates_and_matches_oracle(self, b):
        bset = enumerate_reachable(b)
        got = {tuple(sorted(m.items())) for m in bset.members}
        want = closure_oracle(belief_as_dict(b), b.floor, b.ceil)
        assert got == want

    @given(beliefs())
    @settings(deadline=None)
    def test_each_redistribution_shrinks_the_window_once(self, b):
        """Instrumented bound: any update path sees at most ceil-floor spills."""
        bset = enumerate_reachable(b)
        for i, kids in enumerate(bset.edges):
            parent = bset.members[i]
            for kind, j in kids.items():
                child = bset.members[j]
                spilled = (parent.end == parent.ceil if kind == ENTERED
                           else parent.start == parent.floor)
                width = parent.end - parent.start
                child_width = child.end - child.start
                assert child_width == (width - 1 if spilled else width)
        # spills strictly shrink a nonnegative width, so no path exceeds:
        widest = b.end - b.start
        assert bset.max_redistributions <= widest <= b.ceil - b.floor
        assert bset.max_redistributions == widest - min(
            m.end - m.start for m in bset.members)

    @given(beliefs())
    @settings(deadline=None)
    def test_edges_agree_with_direct_updates(self, b):
        bset = enumerate_reachable(b)
        for i, member in enumerate(bset.members):
            for kind, update in ((ENTERED, update_entered), (LEFT, update_left)):
                try:
                    child = update(member)
                except UpdateNotAllowed:
                    assert bset.edges[i].get(kind) is None
                    continue
                assert bset.members[bset.edges[i].get(kind)] == child
