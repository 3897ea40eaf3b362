"""The digests that the CI workflow pins, checked in-process through ``cli.main``.

Each case runs the commands of one workflow step and compares the sha256 of
the files and the stdout they write, or the counts they print, with the ones
the step pins.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hostilemdp.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def grid_json(tmp_path, monkeypatch):
    """The benchmark's width-2 grid, written as the workflow writes it, to ``grid.json`` in
    a temporary working directory; stdout names output files, so the steps' relative
    paths are kept."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gridenv

    monkeypatch.chdir(tmp_path)
    gridenv.write_grid(Path("grid.json"), 3, 3, 2, 7)


def test_width_2_grid_strategy_from_its_dump(grid_json, capsys):
    """Step "Width-2 grid strategy from its dump is pinned": the benchmark's grid, built,
    dumped and solved from the dump, gives the strategy file and stdout of ``--env``."""
    assert main(["build", "--env", "grid.json", "--dump-mdp", "grid.npz"]) == 0
    capsys.readouterr()
    strategy = Path("smoke/grid-strategy.json")
    strategy.parent.mkdir()
    assert main(["synthesize", "--mdp", "grid.npz", "--out", str(strategy)]) == 0
    stdout = capsys.readouterr().out.encode()
    assert sha256(strategy.read_bytes()) == (
        "a374fd3b60367054495e176412e0b001fdcea2e65bb7bf26268cd936f9d72dda")
    assert sha256(stdout) == "da2f37ffab250f7cff41798896848395665ca058df263cbda3a1da2fa5f90628"


def test_width_2_grid_export(grid_json):
    """Step "Width-2 grid export is pinned": the benchmark's grid exported for PRISM."""
    assert main(["export", "--env", "grid.json", "--out", "smoke/grid"]) == 0
    seen = {suffix: sha256(Path(f"smoke/grid{suffix}").read_bytes())
            for suffix in (".sta", ".tra", ".lab")}
    assert seen == {
        ".sta": "6b583588a5fdbedf941ac38443ff92b3b2241deed9900c2ca8744a91ad90f5ac",
        ".tra": "2bfd64ed5cf11a5a5417d809457b203527a160f656e05e7591d32a1ea2523fc8",
        ".lab": "e69fdc3a7a06e4adcf30bbac1eafcc0f8f9c4a10ad17504d8ac9ea80147fbd8a",
    }


def test_city_strategies(tmp_path, capsys, monkeypatch):
    """Step "City strategies are pinned": caseA and caseB, each stage on its own thread,
    give the strategy files and stdout recorded when the stages ran one after the other."""
    # stdout names the strategy file, so the step's relative paths are kept
    monkeypatch.chdir(tmp_path)
    Path("smoke").mkdir()
    seen = {}
    for case in ("caseA", "caseB"):
        strategy = Path(f"smoke/{case}-strategy.json")
        assert main(["synthesize", "--env", case, "--out", str(strategy)]) == 0
        seen[f"{case}-strategy.json"] = sha256(strategy.read_bytes())
        seen[f"{case}-strategy.txt"] = sha256(capsys.readouterr().out.encode())
    assert seen == {
        "caseA-strategy.json": "3f6db5f4a38aa3f385c0286ed01d2a6c4765cbe7616ef820b67c4e04d2b0c307",
        "caseA-strategy.txt": "922a83cc13a3f91099d078fc8bdf666c4a026b7a48c547b8407fbf20d67feee9",
        "caseB-strategy.json": "95f93b61672ed1af3a1897e0692d7ef1f8700330f0c9eb71530b806f6f2e5d60",
        "caseB-strategy.txt": "412b8835ce16b0ad45951059042d2c09cdc33ebe2b846297930f79189d858ded",
    }


def test_seeded_monte_carlo_counts(capsys):
    """Step "Seeded Monte Carlo counts": 100000 runs of caseA and of caseB, seed 7."""
    want = {
        "caseA": {"satisfied": 20504, "lost": 79496, "step_limit": 0, "delivered": 6552},
        "caseB": {"satisfied": 59987, "lost": 40013, "step_limit": 0, "delivered": 28307},
    }
    seen = {}
    for case, counts in want.items():
        assert main(["simulate", "--env", case, "--runs", "100000", "--seed", "7", "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        seen[case] = {k: got[k] for k in counts}
    assert seen == want
