"""The pinned outputs of the command line, checked in-process through ``cli.main``.

Each case runs the commands that make one output: a strategy file and its
stdout, a PRISM export, a simulation trace or seeded Monte Carlo counts.
It compares the sha256 of the files and stdout they write, or the counts
they print, with the recorded ones.  ``test_regression`` pins the library's
side: each bundled model's export, policy and values, the LP's inputs and
seeded estimates.
"""

import collections
import hashlib
import json
import re
from pathlib import Path

import pytest

from hostilemdp import cli
from hostilemdp.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def grid_json(tmp_path, monkeypatch):
    """The benchmark's width-2 grid (``gridenv.write_grid(3, 3, 2, 7)``), written to
    ``grid.json`` in a temporary working directory; stdout names output files, so the
    pinned stdout holds these relative paths."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gridenv

    monkeypatch.chdir(tmp_path)
    gridenv.write_grid(Path("grid.json"), 3, 3, 2, 7)


@pytest.fixture
def grid1_json(tmp_path, monkeypatch):
    """The 1100-state grid of the benchmark's grid-crosscheck size
    (``gridenv.write_grid(3, 3, 1, 9001)``), written to ``grid1.json`` in a temporary
    working directory with ``smoke/`` made."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gridenv

    monkeypatch.chdir(tmp_path)
    gridenv.write_grid(Path("grid1.json"), 3, 3, 1, 9001)
    Path("smoke").mkdir()


def test_width_2_grid_strategy(grid_json, capsys):
    """The benchmark's width-2 grid solved from ``--env``: value iteration sweeps most of its
    rows in another order than state order, and the strategy file and stdout keep the
    digests recorded before that order."""
    Path("smoke").mkdir()
    assert main(["synthesize", "--env", "grid.json", "--out", "smoke/grid-strategy.json"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert sha256(Path("smoke/grid-strategy.json").read_bytes()) == (
        "a374fd3b60367054495e176412e0b001fdcea2e65bb7bf26268cd936f9d72dda")
    assert sha256(stdout) == "da2f37ffab250f7cff41798896848395665ca058df263cbda3a1da2fa5f90628"


def test_1100_state_grid_strategy(grid1_json, capsys):
    """The grid where the two stage threads interleave the most keeps its strategy file and
    stdout, the digests of a full residual check every sweep."""
    assert main(["synthesize", "--env", "grid1.json", "--out", "smoke/grid1-strategy.json"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert sha256(Path("smoke/grid1-strategy.json").read_bytes()) == (
        "9862f9cc807980ed1466910a6104a5f540ecad27ccbb9a0824f67961a6447558")
    assert sha256(stdout) == "2273a8d920f49db825e63dc0e4b7ca3e7c4849c87ec5a0e49669c7335180b69b"


def test_1100_state_grid_lp_policies(grid1_json):
    """The 1100-state grid's LP strategy, as the sha256 of the ``json.dumps`` of its
    ``first``, ``second`` and ``switch`` members; its value is not pinned, since it may
    move in the last bits between HiGHS releases."""
    assert main(["synthesize", "--env", "grid1.json", "--method", "lp",
                 "--out", "smoke/grid1-lp.json"]) == 0
    got = json.loads(Path("smoke/grid1-lp.json").read_text())
    seen = {k: sha256(json.dumps(got[k]).encode()) for k in ("first", "second", "switch")}
    assert seen == {
        "first": "e7b778dbd3d58883c7b74d6ac37882f1c5776c624354c06158682c0e7afbc222",
        "second": "cfd3183bc98bc2e171c62358e0e772a1d5f5209fcb35f43e669f24723283e2b7",
        "switch": "a3cd741d986dd1cee2cfff3ba053cda254a118f54b5ec6a7096b9e142cd0f202",
    }


def test_width_2_grid_strategy_from_its_dump(grid_json, capsys):
    """The benchmark's grid, built, dumped and solved from the dump, gives the strategy
    file and stdout of ``--env`` byte for byte."""
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
    """The benchmark's grid exported for PRISM: 18070 states, 341298 transitions."""
    assert main(["export", "--env", "grid.json", "--out", "smoke/grid"]) == 0
    seen = {suffix: sha256(Path(f"smoke/grid{suffix}").read_bytes())
            for suffix in (".sta", ".tra", ".lab")}
    assert seen == {
        ".sta": "6b583588a5fdbedf941ac38443ff92b3b2241deed9900c2ca8744a91ad90f5ac",
        ".tra": "2bfd64ed5cf11a5a5417d809457b203527a160f656e05e7591d32a1ea2523fc8",
        ".lab": "e69fdc3a7a06e4adcf30bbac1eafcc0f8f9c4a10ad17504d8ac9ea80147fbd8a",
    }


def test_case_a_export(tmp_path):
    """The caseA export, file by file; joined, the three files give test_regression's
    digest."""
    base = tmp_path / "smoke" / "caseA.v1"
    assert main(["export", "--env", "caseA", "--out", str(base)]) == 0
    seen = {suffix: sha256(Path(f"{base}{suffix}").read_bytes())
            for suffix in (".sta", ".tra", ".lab")}
    assert seen == {
        ".sta": "2bf34c11d27ae4f8880db3d3c44bf2aec0883e6025f927ba0bd9fb9aa0554efe",
        ".tra": "d7c8f0c40bbe4af35e80d254ef4fed8441ddbee7ca921fec3f1d7200f36d19d8",
        ".lab": "e8f23c7986bbc384fc818f1f4320d262d5201782c112e1195a854ad71b23f344",
    }


def test_city_strategies(tmp_path, capsys, monkeypatch):
    """caseA and caseB, each stage on its own thread, give the strategy files and stdout
    recorded when the stages ran one after the other."""
    # stdout names the strategy file, so the pinned stdout holds these relative paths
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
    """The outcome counts of 100000 runs of caseA and of caseB, seed 7."""
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


def test_corridor_dump_steps(tmp_path, capsys, monkeypatch):
    """The traces of 33000 runs, which span two blocks and nine chunks, from the corridor
    dump and from caseA's ``--env`` (642431 lines, with lost-absorb, region and adversary
    events); and a dump refuses ``--scale`` with exit status 2."""
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--env", "corridor", "--dump-mdp", "corridor.mdp.npz"]) == 0
    for source, trace in ((["--mdp", "corridor.mdp.npz"], "t33.csv"),
                          (["--env", "caseA"], "caseA-t33.csv")):
        assert main(["simulate", *source, "--runs", "33000", "--seed", "3",
                     "--trace-out", f"smoke/{trace}"]) == 0
    seen = {name: sha256(Path(f"smoke/{name}").read_bytes())
            for name in ("t33.csv", "caseA-t33.csv")}
    assert seen == {
        "t33.csv": "63698a6bf04897f94873a810c55d4f237039ab223a55e7ae178558126f742f92",
        "caseA-t33.csv": "81cc25ab3dd4823b6fba3d67cbf48406dcb6932fd07c49082e0860c72599610f",
    }
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["synthesize", "--mdp", "corridor.mdp.npz", "--scale", "5"])
    assert err.value.code == 2


def test_strategy_file_is_indented_json(tmp_path):
    """A strategy file is in ``json.dumps`` indented layout, with a newline after it."""
    strategy = tmp_path / "smoke" / "s.json"
    assert main(["synthesize", "--env", "corridor", "--out", str(strategy)]) == 0
    text = strategy.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_both_stages_of_each_method_are_traced(monkeypatch):
    """The bench tracer wraps the solvers on the synth module, and each mission of
    ``--method both`` calls them there: both stages of each method are traced."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    tracer = Tracer()
    with tracer.installed():
        assert cli.main(["synthesize", "--env", "corridor", "--method", "both"]) == 0
    counts = collections.Counter(span.name for span in tracer.spans)
    want = {"synth.max_reach_vi": 2, "synth.max_reach_lp": 2,
            "synth.qualitative_reach": 4, "synth.extract_policy": 4}
    assert {name: counts[name] for name in want} == want


def test_case_a_method_agreement(capsys):
    """caseA's ``--method both`` agrees: the printed VI/LP gap is at most 1e-6.  The LP
    starts from value iteration's policies, so the whole command takes about half a
    second."""
    assert main(["synthesize", "--env", "caseA", "--method", "both"]) == 0
    gap = float(re.search(r"max \|diff\| (\S+)", capsys.readouterr().out).group(1))
    assert gap <= 1e-6
