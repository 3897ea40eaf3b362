"""The benchmark's workloads: which CLI commands a cycle runs, and their checks.

Every command runs in-process through ``hostilemdp.cli.main(argv)`` with
stdout and stderr captured, in a fresh directory of its own, so the bytes a
command writes are the total size of that directory whatever file format the
program uses.  Each workload runs its commands as a fixed *cycle*; the
benchmark repeats cycles back to back in one closed loop.  Every operation's
output is checked, and an operation that exits non-zero, raises, or fails its
check counts as failed.

The program is driven only through its command line, and only with flags
that every version on the roadmap keeps: no ``--workers`` and no
``HOSTILE_MDP_THREADS``, so the simulator uses its default pool.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import re
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import gridenv
from reference import reference_seconds

#: mission values of the bundled city pair, at the default VI tolerance
PINNED_VALUE = {"caseA": 0.2054304460, "caseB": 0.5986294814}
PINNED_TOL = 1e-6
CITY_STATES = 8529
#: grid state counts; the generator keeps them independent of the seed
GRID_STATES = {1: 1100, 2: 18070}
#: Monte Carlo runs per ``simulate``: about 3-4.5 s a command, so one slow
#: spell of the host moves one of the four to six commands a run holds
SIMULATE_RUNS = 20_000
SIMULATE_SIGMAS = 4.5
ROUND_TRIP_TOL = 1e-9
VI_LP_GAP_TOL = 1e-6

_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf"


def numbers_after(label: str, text: str) -> list[float]:
    """Every number on the first line that contains ``label``, after it.

    Tolerant of layout changes: ``value: 0.25`` and ``value: 0.25 in
    [0.2499, 0.2501]`` both yield 0.25 first.
    """
    for line in text.splitlines():
        at = line.find(label)
        if at >= 0:
            return [float(x) for x in re.findall(_NUMBER, line[at + len(label):])]
    return []


def first_number(label: str, text: str) -> Optional[float]:
    found = numbers_after(label, text)
    return found[0] if found else None


def as_number(value) -> Optional[float]:
    """A point value from a JSON number or a ``[lo, hi]`` bracket (its midpoint)."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, (list, tuple)) and value and all(isinstance(v, (int, float)) for v in value):
        return sum(value) / len(value)
    return None


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def dir_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(q for q in path.rglob("*") if q.is_file()):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return digest.hexdigest()


@dataclass
class Outcome:
    """One CLI operation as the benchmark saw it."""

    index: int
    command: str
    argv: list[str]
    directory: Path
    code: int = 0
    stdout: str = ""
    stderr: str = ""
    seconds: float = 0.0
    #: wall time of the reference kernel run just before the operation
    reference: float = 0.0
    written: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


class Runner:
    """Runs CLI operations one after another and keeps every outcome.

    ``on_start`` / ``on_end``, when set, are called around each operation;
    the traced run uses them to tag spans with the operation index.  With
    ``calibrate`` the reference kernel is timed before each operation.
    """

    def __init__(self, workdir: Path, calibrate: bool):
        self.workdir = workdir
        self.calibrate = calibrate
        self.outcomes: list[Outcome] = []
        self.on_start: Optional[Callable[[Outcome], None]] = None
        self.on_end: Optional[Callable[[Outcome], None]] = None

    def run(self, argv_for: Callable[[Path], list[str]],
            check: Callable[[Outcome], list[str]]) -> Outcome:
        import hostilemdp.cli

        index = len(self.outcomes)
        directory = self.workdir / f"op{index}"
        directory.mkdir(parents=True)
        argv = argv_for(directory)
        op = Outcome(index, argv[0], argv, directory)
        out, err = io.StringIO(), io.StringIO()
        # start every operation from a collected heap, as a fresh CLI process would
        gc.collect()
        if self.calibrate:
            op.reference = reference_seconds()
        if self.on_start is not None:
            self.on_start(op)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                op.code = hostilemdp.cli.main(argv)
            except SystemExit as exc:
                op.code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not a benchmark error
                traceback.print_exc()
                op.code = 1
        op.seconds = time.perf_counter() - start
        op.stdout, op.stderr = out.getvalue(), err.getvalue()
        op.written = dir_bytes(directory)
        if self.on_end is not None:
            self.on_end(op)
        if op.code == 0:
            try:
                op.problems = check(op)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                op.problems = [f"output check raised {exc!r}"]
        self.outcomes.append(op)
        return op

    def clear(self):
        """Remove the directories of finished operations."""
        for op in self.outcomes:
            shutil.rmtree(op.directory, ignore_errors=True)


def _value_problems(op: Outcome, expected: float, tol: float, what: str) -> list[str]:
    value = first_number("mission value at init:", op.stdout)
    if value is None:
        return ["no 'mission value at init' line"]
    if not abs(value - expected) <= tol:
        return [f"value {value!r} differs from {what} {expected!r} by more than {tol}"]
    return []


def _states_problems(op: Outcome, expected: int) -> list[str]:
    states = first_number("states:", op.stdout)
    if states != expected:
        return [f"states {states} != {expected}"]
    return []


class Workload:
    """A named cycle of CLI operations on inputs made from one seed."""

    name = ""
    #: cycles a run makes however long they take (the export check needs two)
    min_cycles = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def live_env(self) -> str:
        """Environment whose built model the memory pass measures."""
        raise NotImplementedError

    def cycle(self, k: int, runner: Runner) -> list[Outcome]:
        raise NotImplementedError


def _bundled(name: str) -> str:
    from importlib import resources
    return str(resources.files("hostilemdp.data") / f"city_{name}.json")


class CitySynth(Workload):
    name = "city-synth"

    def live_env(self):
        return _bundled("caseA")

    def cycle(self, k, runner):
        ops = []
        for case in ("caseA", "caseB"):
            def check(op, case=case):
                return (_value_problems(op, PINNED_VALUE[case], PINNED_TOL, f"pinned {case}")
                        + _states_problems(op, CITY_STATES))
            ops.append(runner.run(lambda d, case=case: ["synthesize", "--env", case], check))
        return ops


class CitySimulate(Workload):
    name = "city-simulate"

    def live_env(self):
        return _bundled("caseA")

    def cycle(self, k, runner):
        ops = []
        for j, case in enumerate(("caseA", "caseB")):
            seed = self.seed + 2 * k + j
            argv = ["simulate", "--env", case, "--runs", str(SIMULATE_RUNS),
                    "--seed", str(seed), "--json"]
            ops.append(runner.run(lambda d, argv=argv: argv,
                                  lambda op, case=case: self.check(op, case)))
        return ops

    @staticmethod
    def check(op: Outcome, case: str) -> list[str]:
        lines = [ln for ln in op.stdout.splitlines() if ln.startswith("{")]
        if not lines:
            return ["no JSON line on stdout"]
        doc = json.loads(lines[-1])
        value, estimate = as_number(doc.get("value")), as_number(doc.get("estimate"))
        runs = doc.get("runs")
        if value is None or estimate is None or runs != SIMULATE_RUNS:
            return [f"unreadable result {lines[-1][:200]}"]
        problems = []
        if not abs(value - PINNED_VALUE[case]) <= PINNED_TOL:
            problems.append(f"value {value!r} is not the pinned {case} value")
        sigma = math.sqrt(value * (1.0 - value) / runs)
        if not abs(estimate - value) <= SIMULATE_SIGMAS * sigma:
            problems.append(f"estimate {estimate} is more than {SIMULATE_SIGMAS} sigma "
                            f"({sigma:.2e}) from value {value}")
        counts = [doc.get(key) for key in ("satisfied", "lost", "step_limit")]
        if all(isinstance(c, int) for c in counts) and sum(counts) != runs:
            problems.append(f"outcome counts {counts} do not add up to {runs} runs")
        return problems


class GridArtifacts(Workload):
    name = "grid-artifacts"
    min_cycles = 2
    width = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.env = gridenv.write_grid(workdir / "grid.json", 3, 3, self.width, seed)
        self.reference = self._reference_value()
        self.printed_counts: Optional[tuple[int, ...]] = None
        self.export_digest: Optional[str] = None

    def _reference_value(self) -> float:
        """Untimed, in-process build and solve of the same grid."""
        from hostilemdp.envmodel import load_environment
        from hostilemdp.mdpbuild import build_mdp
        from hostilemdp.synth import synthesize_mission
        return synthesize_mission(build_mdp(load_environment(self.env))).value

    def live_env(self):
        return str(self.env)

    def cycle(self, k, runner):
        env = str(self.env)
        build = runner.run(lambda d: ["build", "--env", env, "--dump-mdp", str(d / "mdp.json")],
                           self.check_build)
        dumps = sorted(p for p in build.directory.iterdir() if p.is_file())
        dump = dumps[0] if len(dumps) == 1 else build.directory / "mdp.json"
        synth = runner.run(
            lambda d: ["synthesize", "--mdp", str(dump), "--out", str(d / "strategy.json")],
            self.check_synthesize)
        export = runner.run(lambda d: ["export", "--env", env, "--out", str(d / "model")],
                            self.check_export)
        return [build, synth, export]

    def check_build(self, op):
        counts = tuple(first_number(f"{key}:", op.stdout)
                       for key in ("states", "choices", "transitions"))
        if None in counts:
            return ["build did not print states, choices and transitions"]
        self.printed_counts = tuple(int(c) for c in counts)
        problems = _states_problems(op, GRID_STATES[self.width])
        if op.written == 0:
            problems.append("build wrote no dump")
        return problems

    def check_synthesize(self, op):
        problems = _value_problems(op, self.reference, ROUND_TRIP_TOL, "in-process reference")
        if op.written == 0:
            problems.append("synthesize wrote no strategy")
        return problems

    def check_export(self, op):
        tra = sorted(op.directory.glob("*.tra"))
        if len(tra) != 1:
            return [f"expected one .tra file, found {len(tra)}"]
        with open(tra[0]) as handle:
            header = tuple(int(x) for x in handle.readline().split())
        problems = []
        if header != self.printed_counts:
            problems.append(f".tra header {header} != build counts {self.printed_counts}")
        digest = dir_digest(op.directory)
        if self.export_digest is None:
            self.export_digest = digest
        elif digest != self.export_digest:
            problems.append("export bytes differ from the run's first export")
        return problems


class GridCrosscheck(Workload):
    """VI and LP on a fresh small grid per operation.

    The solvers' work depends on the grid's probabilities: one seed's grid
    can take over a quarter longer to solve than another's.  Each operation
    therefore solves its own grid, made from the workload seed and the
    cycle index, so a run's median is taken over many grids and does not
    hinge on one seed's draw.
    """

    name = "grid-crosscheck"
    width = 1

    def live_env(self):
        return str(self._grid(0))

    def _grid(self, k: int) -> Path:
        return gridenv.write_grid(self.workdir / f"grid{k}.json", 3, 3, self.width,
                                  self.seed * 1000 + k)

    def cycle(self, k, runner):
        env = str(self._grid(k))
        return [runner.run(lambda d: ["synthesize", "--env", env, "--method", "both"], self.check)]

    def check(self, op):
        problems = _states_problems(op, GRID_STATES[self.width])
        gap = first_number("max |diff|", op.stdout)
        if gap is None:
            problems.append("no 'vi vs lp' agreement line")
        elif not gap <= VI_LP_GAP_TOL:
            problems.append(f"vi vs lp gap {gap} > {VI_LP_GAP_TOL}")
        return problems


WORKLOADS = {w.name: w for w in (CitySynth, CitySimulate, GridArtifacts, GridCrosscheck)}
