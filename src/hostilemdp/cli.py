"""Command line front end.

Every subcommand takes ``--env`` with either a path to an environment JSON
file or the name of a bundled one (``corridor``, ``caseA``, ``caseB``).
Results go to stdout; the resolved configuration and any warnings go to
stderr.  Every command that needs an MDP, ``build`` included, gets it
through :func:`_obtain_mdp`, which lists up to 20 violations of an invalid
one on stderr and refuses it.
Exit status: 0 on success, 2 for bad usage (argparse's convention), and 1
when an input is malformed or invalid, a file cannot be read or written, or
a solve fails; :func:`main` turns each of these failures into one
``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .belief import enumerate_reachable, render_dot
from .envmodel import DROPOFF, PICKUP, load_environment, scale_rates
from .mdpbuild import (
    MdpFormatError,
    build_mdp,
    dump_mdp,
    export_prism,
    load_mdp,
    validate_mdp,
)
from .simrun import estimate_success
from .synth import synthesize_mission

BUNDLED = {"corridor": "corridor.json", "caseA": "city_caseA.json", "caseB": "city_caseB.json"}


def _resolve_env_path(spec: str) -> Path:
    if spec in BUNDLED:
        return Path(resources.files("hostilemdp.data") / BUNDLED[spec])
    return Path(spec)


def _echo_config(args: argparse.Namespace):
    shown = {k: str(v) for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    print(f"config: {json.dumps(shown)}", file=sys.stderr)


def _load(args) -> "Environment":
    if not args.env.exists():
        raise FileNotFoundError(
            f"{args.env} is neither a file nor a bundled environment "
            f"(bundled: {', '.join(sorted(BUNDLED))})"
        )
    env = load_environment(args.env)
    if getattr(args, "scale", None) not in (None, 1.0):
        env = scale_rates(env, args.scale)
    for w in env.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return env


def _obtain_mdp(args):
    """MDP from --mdp dump when given, otherwise built from --env; refused unless valid.

    The first 20 violations of an invalid model go to stderr before it is refused.
    """
    if getattr(args, "mdp", None):
        mdp = load_mdp(args.mdp)
    else:
        mdp = build_mdp(_load(args))
        for w in mdp.warnings:
            print(f"warning: {w}", file=sys.stderr)
    bad = validate_mdp(mdp)
    for v in bad[:20]:
        print(f"violation: state {v.state} action {v.action}: {v.kind} ({v.detail})",
              file=sys.stderr)
    if bad:
        v = bad[0]
        raise MdpFormatError(
            f"the MDP fails validation with {len(bad)} violations (first: state {v.state} "
            f"action {v.action}: {v.kind} ({v.detail}))"
        )
    return mdp


def _make_parent(path) -> None:
    """Create the directory an output file goes into, as ``export`` does for its files."""
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)


def cmd_validate_env(args) -> int:
    env = _load(args)
    n_prims = len(env.primitives)
    print(f"environment {env.name!r}: {len(env.regions)} regions, "
          f"{len(env.facets)} facets, {n_prims} primitives")
    print(f"init: facet {env.init_facet!r}, region {env.init_region!r}")
    for label in (PICKUP, DROPOFF):
        tagged = [r.id for r in env.regions.values() if label in r.labels]
        print(f"{label}: {tagged[0]}")
    print("ok")
    return 0


def cmd_beliefs(args) -> int:
    env = _load(args)
    if args.region not in env.regions:
        raise ValueError(f"unknown region {args.region!r}")
    region = env.regions[args.region]
    _make_parent(args.dot)
    bset = enumerate_reachable(region.initial_belief)
    print(f"region {region.id!r}: bounds [{region.min_adversaries}, {region.max_adversaries}], "
          f"{len(bset)} reachable beliefs, "
          f"at most {bset.max_redistributions} redistributions on any path")
    for i, b in enumerate(bset.members):
        support = ", ".join(f"{n}:{p}" for n, p in b.items())
        kids = bset.edges[i]
        arrows = " ".join(f"{kind}->{dst}" for kind, dst in sorted(kids.items()))
        print(f"  [{i}] window [{b.start}..{b.end}]  {{{support}}}  {arrows}".rstrip())
    if args.dot:
        Path(args.dot).write_text(render_dot(bset, name=f"beliefs_{region.id}"))
        print(f"wrote {args.dot}")
    return 0


def cmd_build(args) -> int:
    mdp = _obtain_mdp(args)
    print(f"states: {mdp.n_states}")
    print(f"choices: {mdp.n_choices()}")
    print(f"transitions: {mdp.n_transitions()}")
    for name in sorted(mdp.labels):
        print(f"label {name}: {np.count_nonzero(mdp.labels[name])} states")
    print("row sums and absorption checks: ok")
    if args.dump_mdp:
        _make_parent(args.dump_mdp)
        dump_mdp(mdp, args.dump_mdp)
        print(f"wrote {args.dump_mdp}")
    return 0


def _fmt_state(mdp, s: int) -> str:
    if mdp.states is None:
        return ""
    v = mdp.states[s]
    return f"{v.facet}|{v.region} n={v.count} o={v.level}"


def _policy_walk(mdp, strategy, limit: int = 24):
    """Nominal route under the strategy, one (state, phase, action) per row.

    Purely illustrative: at each state it plays the chosen action and
    follows the likeliest successor among those that move the vehicle
    (adversary churn and getting lost are skipped), stopping at delivery,
    at a state the policy does not cover, on a revisit, or at ``limit``
    rows.
    """
    rows = []
    alive = mdp.label("alive")
    dropoff = mdp.label(DROPOFF)
    table = mdp.states
    owner = mdp.owner
    # plays[phase, s]: the choice the phase's policy plays at s (-1: none)
    plays = np.full((2, mdp.n_states), -1, dtype=np.int64)
    for phase, policy in enumerate((strategy.first, strategy.second)):
        plays[phase, owner[policy]] = policy
    s = mdp.init
    satisfied = False
    seen = set()
    while len(rows) < limit:
        if not satisfied and strategy.switch[s]:
            satisfied = True
        if satisfied and dropoff[s]:
            rows.append((s, "second", "(delivered)"))
            break
        phase = "second" if satisfied else "first"
        c = int(plays[int(satisfied), s])
        if c < 0 or (s, satisfied) in seen:
            break
        seen.add((s, satisfied))
        rows.append((s, phase, mdp.action_names[mdp.choice_action[c]]))
        lo, hi = mdp.choice_ptr[c], mdp.choice_ptr[c + 1]
        succ, prob = mdp.succ[lo:hi], mdp.prob[lo:hi]
        moves = alive[succ]
        if table is not None:
            moves &= (table.facet[succ] != table.facet[s]) | (table.region[succ] != table.region[s])
        if not moves.any():
            break
        # the likeliest move; the first one on a tie
        s = int(succ[moves][np.argmax(prob[moves])])
    return rows


def _strategy_json(mdp, strategy) -> str:
    """The ``--out`` file: ``json.dumps(payload, indent=2)`` plus a newline, written directly.

    The payload holds ``value``, ``method``, the ``switch`` states and each
    stage's policy as ``{state: action name}`` in ascending state order.
    ``json`` formats an indented document with its pure-Python encoder,
    about 2.5 times slower on a large model than this.
    """
    def nested(opening: str, closing: str, items: list[str]) -> str:
        if not items:
            return opening + closing
        return opening + ",".join("\n    " + item for item in items) + "\n  " + closing

    # json.dumps escapes every non-ASCII character, so each entry is ASCII bytes
    names = np.array([json.dumps(name).encode() for name in mdp.action_names], dtype=object)
    owner = mdp.owner

    def policy(chosen) -> str:
        if not len(chosen):
            return "{}"
        # one key token and one gathered name token per entry, joined in one pass
        keys = np.array([b',\n    "%d": ' % s for s in owner[chosen].tolist()], dtype=object)
        keys[0] = keys[0][1:]
        entries = np.column_stack((keys, names[mdp.choice_action[chosen]]))
        return "{" + b"".join(entries.ravel().tolist()).decode() + "\n  }"

    switch = nested("[", "]", [str(s) for s in np.flatnonzero(strategy.switch).tolist()])
    members = [f'"value": {json.dumps(strategy.value)}', f'"method": {json.dumps(strategy.method)}',
               f'"switch": {switch}', f'"first": {policy(strategy.first)}',
               f'"second": {policy(strategy.second)}']
    return "{\n  " + ",\n  ".join(members) + "\n}\n"


def cmd_synthesize(args) -> int:
    mdp = _obtain_mdp(args)
    _make_parent(args.out)
    methods = ("vi", "lp") if args.method == "both" else (args.method,)
    results = [synthesize_mission(mdp, method=m, tol=args.tol) for m in methods]
    strategy = results[0]
    init = mdp.init
    print(f"states: {mdp.n_states}")
    print(f"mission value at init: {strategy.value:.10f}")
    print(f"  phase 1 (reach pickup, delivery still possible): "
          f"{strategy.values_first[init]:.10f}")
    print(f"  phase 2 (reach dropoff from here): {strategy.values_second[init]:.10f}")
    print(f"switch states (pickup, delivery still possible): "
          f"{np.count_nonzero(strategy.switch)}")
    print(f"first-stage policy: {len(strategy.first)} states")
    print(f"second-stage policy: {len(strategy.second)} states")
    if len(results) == 2:
        gap = max(
            float(np.max(np.abs(results[0].values_first - results[1].values_first))),
            float(np.max(np.abs(results[0].values_second - results[1].values_second))),
        )
        print(f"method agreement (vi vs lp): value {results[1].value:.10f}, "
              f"max |diff| {gap:.3e}")
    walk = _policy_walk(mdp, strategy)
    if walk:
        print("nominal route (likeliest successful crossings):")
        for s, phase, action in walk:
            print(f"  [{phase:6}] {s:>6}  {_fmt_state(mdp, s):<28} {action}")
    if args.out:
        Path(args.out).write_text(_strategy_json(mdp, strategy))
        print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    mdp = _obtain_mdp(args)
    _make_parent(args.trace_out)
    strategy = synthesize_mission(mdp, method=args.method)
    trace = open(args.trace_out, "wb") if args.trace_out else None
    try:
        est = estimate_success(
            mdp, strategy, runs=args.runs, master_seed=args.seed,
            max_steps=args.max_steps, trace=trace,
        )
    except RuntimeError as exc:
        # a run reached a state the strategy has no action for, as all do at mission value 0
        raise RuntimeError(f"{exc}; the mission value at init is {strategy.value:g}") from exc
    finally:
        if trace is not None:
            trace.close()
            print(f"wrote {args.trace_out}", file=sys.stderr)

    lo, hi = est.interval()
    if args.json:
        print(json.dumps({
            "value": strategy.value, "runs": est.runs, "satisfied": est.satisfied,
            "estimate": est.estimate, "half_width": est.half_width,
            "interval": [lo, hi], "delivered": est.delivered, "lost": est.lost,
            "step_limit": est.step_limit, "seed": est.master_seed,
        }))
        return 0
    print(f"mission value at init: {strategy.value:.6f}")
    print(f"runs: {est.runs} (seed {est.master_seed})")
    print(f"satisfied: {est.satisfied} ({est.estimate:.6f}, "
          f"95% interval [{lo:.6f}, {hi:.6f}])")
    print(f"delivered: {est.delivered}")
    print(f"lost: {est.lost}  step-limit: {est.step_limit}")
    return 0


def cmd_export(args) -> int:
    mdp = _obtain_mdp(args)
    paths = export_prism(mdp, args.out)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _finite_float(strict: bool):
    """argparse type: a finite float at least 0, or above 0 when ``strict``."""
    wanted = f"a finite number {'above' if strict else 'at least'} 0"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or value < 0 or (strict and value == 0):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return parse


def _add_env_arg(parser, required=True):
    parser.add_argument("--env", type=_resolve_env_path, required=required,
                        help="environment JSON path or bundled name "
                             f"({', '.join(sorted(BUNDLED))})")
    parser.add_argument("--scale", type=_finite_float(strict=True), default=None,
                        help="multiply every rate by this factor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hostile-mdp",
        description="Synthesize and simulate delivery routes through hostile regions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-env", help="parse an environment and report its shape")
    _add_env_arg(p)
    p.set_defaults(func=cmd_validate_env)

    p = sub.add_parser("beliefs", help="enumerate the belief closure of one region")
    _add_env_arg(p)
    p.add_argument("--region", required=True)
    p.add_argument("--dot", help="write the update graph as GraphViz dot")
    p.set_defaults(func=cmd_beliefs)

    p = sub.add_parser("build", help="expand the MDP and check its structure")
    _add_env_arg(p)
    p.add_argument("--dump-mdp", help="dump the MDP as one .npz archive, written to exactly "
                                      "this path (read back with --mdp)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("synthesize", help="solve the mission property and extract a strategy")
    _add_env_arg(p, required=False)
    p.add_argument("--mdp", help="load a dumped MDP instead of building from --env")
    p.add_argument("--method", choices=("vi", "lp", "both"), default="vi",
                   help="solver; 'both' runs the two and reports their gap")
    p.add_argument("--tol", type=_finite_float(strict=False), default=1e-9,
                   help="value-iteration stop tolerance")
    p.add_argument("--out", help="write the strategy as JSON")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="estimate mission success by Monte Carlo runs")
    _add_env_arg(p, required=False)
    p.add_argument("--mdp", help="load a dumped MDP instead of building from --env")
    p.add_argument("--method", choices=("vi", "lp"), default="vi")
    p.add_argument("--runs", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=100_000)
    p.add_argument("--trace-out",
                   help="write per-step trace rows as CSV (meant for small --runs)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("export", help="write PRISM explicit-state files (.sta/.tra/.lab)")
    _add_env_arg(p)
    p.add_argument("--out", required=True, help="output base path (extensions are added)")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("synthesize", "simulate") and not args.mdp and args.env is None:
        parser.error(f"{args.command}: one of --env or --mdp is required")
    if getattr(args, "mdp", None) and args.env is not None:
        parser.error(f"{args.command}: give one of --env or --mdp, not both; a --mdp dump "
                     "is used as stored")
    if getattr(args, "mdp", None) and args.scale is not None:
        parser.error(f"{args.command}: --scale applies to --env only; a --mdp dump is used "
                     "as stored")
    if args.command == "simulate" and (args.runs < 1 or min(args.max_steps, args.seed) < 0):
        parser.error("simulate: --runs must be at least 1, --max-steps and --seed at least 0")
    _echo_config(args)
    try:
        return args.func(args)
    # a malformed or invalid input is a ValueError (EnvironmentFormatError, MdpFormatError);
    # a failed solve (VI budget, LP status, no progressing action) is a RuntimeError
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
