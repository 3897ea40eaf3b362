"""Pinned outputs of the bundled environments.

The digests and values were recorded from the nested-list model that the
flat arrays replaced; any change to build order, solver arithmetic, policy
extraction or export formatting shows up here as a mismatch.
"""

import hashlib
import json

import pytest

from conftest import bundled_doc, policy_actions
from hostilemdp.envmodel import parse_environment
from hostilemdp.mdpbuild import build_mdp, export_prism
from hostilemdp.synth import synthesize_mission

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
