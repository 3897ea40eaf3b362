"""Pinned outputs of the bundled environments.

The digests and values were recorded from the nested-list model that the
flat arrays replaced; any change to build order, solver arithmetic, policy
extraction or export formatting shows up here as a mismatch.  ``VALUES``
pins every state's value in both stages, so a last-bit change anywhere in
the value iteration shows, not only one at the initial state.
"""

import hashlib
import json

import numpy as np
import pytest
import scipy.optimize

from conftest import bundled_doc, policy_actions, random_mdp
from hostilemdp.envmodel import parse_environment
from hostilemdp.mdpbuild import build_mdp, export_prism
from hostilemdp.synth import max_reach_lp, max_reach_vi, synthesize_mission

#: name -> (sha256 of .sta + .tra + .lab, sha256 of the policy JSON, repr of the value)
PINNED = {
    "corridor": (
        "c84ba4bc8d3030a0f489ddd8ecfb96a6c062237ccc025fadaec55f63d7326313",
        "7ffe5697598d61102abf2de7a99f8bb6fb10854870af22fabb09dcb5de9709fd",
        "0.9728657288941305",
    ),
    "city_caseA": (
        "30dd79695cbc6480b77aec3eb3ac0c50ca7b759a9af37dea4ddc36a788d1861f",
        "2b32efc15ebd9416b5f1fa696d0c0ea51e2521e41538c7cf5234e1e19051ad10",
        "0.20543044599997062",
    ),
    "city_caseB": (
        "f94684617807bd8c362a2fc137adf96887c90899fe7e5beecec535f4a3ec458c",
        "d23fe8b70b8954a98860d064b7549dfe0284f9c65c96ae95d3a680ad450ba888",
        "0.5986294813573032",
    ),
}

#: name -> ((sha256 of values_first.tobytes(), its VI sweeps),
#:          (sha256 of values_second.tobytes(), its VI sweeps)), at the default tolerance
VALUES = {
    "corridor": (
        ("a30ba24adaa0584c8e55af0efbdc5d45464711ba297d1e474141c91e27934091", 33),
        ("faed0ffcc9e0197c19e0f07bb264dbb83d9bfe9e9528de3fe4eb572e2d1ef368", 34),
    ),
    "city_caseA": (
        ("661b072bb0ac661487d31debddf3e8a6fc314b945e15ade3eaaff83615e54f81", 203),
        ("f2cef6b7f04e0cd32d8489a74883e59f0aca125c4ed460f681e4f61820b225fb", 192),
    ),
    "city_caseB": (
        ("a7480c81894208554535424308ea4650de0523a2933e25a4c9016c3d8829351e", 140),
        ("04a26c3161e51df77305efee8b5badc1e2e7e7d57b3f21d8371be3a3fa1ea3ec", 137),
    ),
}

#: model -> (sha256 of A_ub, sha256 of b_ub) of each LP it solves (the
#: mission's second stage first); A_ub as its shape, data bits, and indices and
#: indptr as int64.  ``random`` is ``random_mdp`` of seed [1717, 3].
LP_INPUTS = {
    "corridor": (
        ("238c1cfb229f7e20f1094e7c989f1df4807399d64f58f57147cfa48e90611c64",
         "332d3dbe46901cb0b969a2f0d9c0c55be41935d1e61f915347b94bba0c5d5f04"),
        ("e9c9c2980f2775bc68b9520019814640cadf88252df79b3d582442c1b824918b",
         "ef3ae038352f72077751c22dda8c48f459095f07fbb33f4169ddc99f54faf7f4"),
    ),
    "random": (
        ("f6cc7f664acc572315ccdce6f2c54ad65a3b62d0f5787d2fcec94cff5d93163f",
         "48708f4a0f6d166194904f33e4706b930010b50697299020e6f41ce5222b3cff"),
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_export_policy_and_value_are_pinned(name, tmp_path):
    export_digest, policy_digest, value = PINNED[name]
    mdp = build_mdp(parse_environment(bundled_doc(name)))
    files = export_prism(mdp, tmp_path / "m")
    assert sha256(b"".join(f.read_bytes() for f in files)) == export_digest

    strategy = synthesize_mission(mdp)
    policy = json.dumps({
        "first": {str(s): a for s, a in sorted(policy_actions(mdp, strategy.first).items())},
        "second": {str(s): a for s, a in sorted(policy_actions(mdp, strategy.second).items())},
    }, sort_keys=True)
    assert sha256(policy.encode()) == policy_digest
    assert repr(strategy.value) == value


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_vectors_and_sweeps_are_pinned(name):
    mdp = build_mdp(parse_environment(bundled_doc(name)))
    strategy = synthesize_mission(mdp)
    alive = mdp.label("alive")
    # the two stages as synthesize_mission solves them, for their sweep counts
    stages = (
        (strategy.values_first, max_reach_vi(mdp, strategy.switch, alive)),
        (strategy.values_second, max_reach_vi(mdp, alive & mdp.label("dropoff"), alive)),
    )
    for (digest, sweeps), (values, again) in zip(VALUES[name], stages):
        assert values.dtype == np.float64
        assert sha256(values.tobytes()) == digest
        assert again.iterations == sweeps
        assert np.array_equal(again.values, values)


def test_lp_inputs_are_pinned(monkeypatch):
    seen = []
    solve = scipy.optimize.linprog

    def capture(c, A_ub, b_ub, **kw):
        seen.append((
            sha256(str(A_ub.shape).encode() + A_ub.data.tobytes()
                   + A_ub.indices.astype(np.int64).tobytes()
                   + A_ub.indptr.astype(np.int64).tobytes()),
            sha256(np.asarray(b_ub, dtype=np.float64).tobytes()),
        ))
        return solve(c=c, A_ub=A_ub, b_ub=b_ub, **kw)

    monkeypatch.setattr(scipy.optimize, "linprog", capture)
    synthesize_mission(build_mdp(parse_environment(bundled_doc("corridor"))), method="lp")
    mdp, goal = random_mdp(np.random.default_rng([1717, 3]), max_actions=3)
    max_reach_lp(mdp, goal, np.ones(mdp.n_states, dtype=bool))
    # the mission's two stage LPs are solved at the same time, so they may be
    # captured in either order; every digest must still match
    assert len(seen) == 3
    assert sorted(seen[:2]) == sorted(LP_INPUTS["corridor"])
    assert tuple(seen[2:]) == LP_INPUTS["random"]
