"""The digests that the CI workflow pins, checked in-process through ``cli.main``.

Each case runs the commands of one workflow step and compares the sha256 of
the files and the stdout they write with the digests the step pins.
"""

import hashlib
from pathlib import Path

from hostilemdp.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_width_2_grid_strategy_from_its_dump(tmp_path, capsys, monkeypatch):
    """Step "Width-2 grid strategy from its dump is pinned": the benchmark's grid, built,
    dumped and solved from the dump, gives the strategy file and stdout of ``--env``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gridenv

    # stdout names the strategy file, so the step's relative paths are kept
    monkeypatch.chdir(tmp_path)
    gridenv.write_grid(Path("grid.json"), 3, 3, 2, 7)
    assert main(["build", "--env", "grid.json", "--dump-mdp", "grid.npz"]) == 0
    capsys.readouterr()
    strategy = Path("smoke/grid-strategy.json")
    strategy.parent.mkdir()
    assert main(["synthesize", "--mdp", "grid.npz", "--out", str(strategy)]) == 0
    stdout = capsys.readouterr().out.encode()
    assert sha256(strategy.read_bytes()) == (
        "a374fd3b60367054495e176412e0b001fdcea2e65bb7bf26268cd936f9d72dda")
    assert sha256(stdout) == "da2f37ffab250f7cff41798896848395665ca058df263cbda3a1da2fa5f90628"
