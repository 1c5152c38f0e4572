"""Command-line front end.

Subcommands::

    payoff       payoffs of a profile under a mediator
    social-cost  social cost of a profile
    pne          equilibrium check for one profile, or grid enumeration
    ic           intervention-cost search
    table1       per-n summary: optimal social cost, no-intervention
                 equilibrium costs, dictator/limited-intervention
                 intervention-cost bounds and search estimates

Numbers print with 12 significant digits; ``--format json`` emits the
documented JSON schemas instead of CSV.  Exit codes: 0 on success (and on a
matching ``--expect`` verdict), 1 when an ``--expect`` verdict mismatches,
2 on usage errors.  Every randomized command is reproducible from its seed,
independent of ``--threads``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .core import _MEDIATORS, UNIFORM, Dictator, GameSpec, Lime, distribution_from_json, mediator_from_json
from .equilibrium import is_pne, pne_enumerate
from .metrics import ic_search, payoff, social_cost

__all__ = ["main"]


def _fmt(x):
    if x is None:
        return ""
    return f"{x:.12g}"


def _parse_profile(text, n):
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"malformed profile {text!r}") from None
    if len(values) != n:
        raise ValueError(f"profile has {len(values)} entries, expected n={n}")
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise ValueError("profile locations must lie in [0, 1]")
    return values


def _build_game(args):
    """The game of the flags: the mediator flags become its wire object,
    which the mediator's own record parses."""
    dist = UNIFORM
    if args.distribution:
        with open(args.distribution) as fh:
            dist = distribution_from_json(json.load(fh))
    wire = {"kind": args.mediator, "epsilon": args.epsilon, "equalityTol": args.equality_tol}
    if args.lam is not None:
        wire["lambda"] = args.lam
    if args.targets:
        wire["targets"] = [float(v) for v in args.targets.split(",")]
    return GameSpec(n=args.n, mediator=mediator_from_json(wire), distribution=dist)


def _emit(args, json_obj, csv_lines):
    if args.format == "json":
        print(json.dumps(json_obj))
    else:
        for line in csv_lines:
            print(line)


def _cmd_payoff(args):
    game = _build_game(args)
    profile = _parse_profile(args.profile, game.n)
    values = payoff(game, profile)
    _emit(
        args,
        {"payoffs": list(values)},
        [",".join(_fmt(v) for v in values)],
    )
    return 0


def _cmd_social_cost(args):
    game = _build_game(args)
    profile = _parse_profile(args.profile, game.n)
    value = social_cost(game, profile)
    _emit(args, {"socialCost": value}, [_fmt(value)])
    return 0


def _check_expect(expect, verdict_name):
    if expect is None:
        return 0
    return 0 if expect == verdict_name else 1


def _cmd_pne(args):
    game = _build_game(args)
    if args.enumerate:
        if args.grid_step is None:
            raise ValueError("--enumerate requires --grid-step")
        profiles = pne_enumerate(game, args.grid_step, gain_tol=args.gain_tol, threads=args.threads)
        _emit(
            args,
            {"profiles": [list(p) for p in profiles]},
            [",".join(_fmt(v) for v in p) for p in profiles] or ["<empty>"],
        )
        return _check_expect(args.expect, "empty" if not profiles else "nonempty")
    if not args.profile:
        raise ValueError("pne needs --profile or --enumerate")
    profile = _parse_profile(args.profile, game.n)
    report = is_pne(game, profile, gain_tol=args.gain_tol)
    header = "isPne,worstGain,witnessPlayer,witnessDeviation,candidateCount,gainTol,gridStep"
    witness_player = "" if report.witness is None else str(report.witness[0])
    witness_dev = "" if report.witness is None else _fmt(report.witness[1])
    row = ",".join(
        [
            "true" if report.is_pne else "false",
            _fmt(report.worst_gain),
            witness_player,
            witness_dev,
            str(report.candidate_count),
            _fmt(report.gain_tol),
            _fmt(report.grid_step),
        ]
    )
    _emit(args, report.to_json(), [header, row])
    return _check_expect(args.expect, "pne" if report.is_pne else "no-pne")


def _cmd_ic(args):
    game = _build_game(args)
    est = ic_search(game, budget=args.budget, seed=args.seed, threads=args.threads)
    header = "mediator,n,seed,budget,searchLower,fixtureLower,analyticLower,analyticUpper,argmaxProfile"
    row = ",".join(
        [
            game.mediator.kind,
            str(game.n),
            str(args.seed),
            str(args.budget),
            _fmt(est.search_lower),
            _fmt(est.fixture_lower),
            _fmt(est.analytic_lower),
            _fmt(est.analytic_upper),
            ";".join(_fmt(v) for v in est.argmax_profile),
        ]
    )
    _emit(args, est.to_json(), [header, row])
    return 0


def _nime_pne_costs(n):
    """Known equilibrium social costs of the unmediated game, per Table rows."""
    if n == 2:
        return 0.25, 0.25
    if n == 3:
        return None, None
    return 1.0 / (4 * (n - 2)), 1.0 / (4 * math.ceil(n / 2))


def _cmd_table1(args):
    rows = []
    for n in range(2, 9):
        optimal = 1.0 / (4 * n)
        best, worst = _nime_pne_costs(n)
        dict_est = ic_search(GameSpec(n, Dictator()), budget=args.budget, seed=args.seed, threads=args.threads)
        dict_lower = dict_est.analytic_lower
        lime_game = GameSpec(n, Lime(epsilon=args.epsilon))
        lime_est = ic_search(lime_game, budget=args.budget, seed=args.seed, threads=args.threads)
        lime_lower, lime_upper = lime_est.analytic_lower, lime_est.analytic_upper
        flags = []
        if dict_est.search_lower < dict_lower - 5e-3:
            flags.append("dict:search<lower")
        if lime_lower is not None and lime_est.search_lower < lime_lower - 5e-3:
            flags.append("lime:search<lower")
        if lime_upper is not None and lime_est.search_lower > lime_upper + 1e-9:
            flags.append("lime:search>upper")
        rows.append(
            {
                "n": n,
                "optimalSc": optimal,
                "nimeBestPneSc": best,
                "nimeWorstPneSc": worst,
                "dictIcLower": dict_lower,
                "dictIcSearch": dict_est.search_lower,
                "limeIcLower": lime_lower,
                "limeIcUpper": lime_upper,
                "limeIcSearch": lime_est.search_lower,
                "flags": ";".join(flags),
            }
        )
    header = (
        "n,optimalSc,nimeBestPneSc,nimeWorstPneSc,dictIcLower,dictIcSearch,"
        "limeIcLower,limeIcUpper,limeIcSearch,flags"
    )
    lines = [header]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r["n"]),
                    _fmt(r["optimalSc"]),
                    "no PNE" if r["nimeBestPneSc"] is None else _fmt(r["nimeBestPneSc"]),
                    "no PNE" if r["nimeWorstPneSc"] is None else _fmt(r["nimeWorstPneSc"]),
                    _fmt(r["dictIcLower"]),
                    _fmt(r["dictIcSearch"]),
                    _fmt(r["limeIcLower"]),
                    _fmt(r["limeIcUpper"]),
                    _fmt(r["limeIcSearch"]),
                    r["flags"],
                ]
            )
        )
    _emit(args, {"rows": rows}, lines)
    return 0


def _add_game_flags(p):
    p.add_argument("--mediator", required=True, choices=list(_MEDIATORS))
    p.add_argument("--n", type=int, required=True, help="number of players")
    p.add_argument("--epsilon", type=float, default=1e-3, help="random-redirect weight")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="clime interval half-width")
    p.add_argument("--targets", default=None, help="dictated targets, comma-separated")
    p.add_argument("--equality-tol", type=float, default=1e-9, help="dictator obedience tolerance")
    p.add_argument("--distribution", default=None, help="JSON file with the user distribution")


def _add_common_flags(p):
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hotelling-mediators",
        description="Mediated facility-location games on the unit segment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("payoff", help="payoffs of a profile")
    _add_game_flags(p)
    _add_common_flags(p)
    p.add_argument("--profile", required=True, help="locations, comma-separated")
    p.set_defaults(func=_cmd_payoff)

    p = sub.add_parser("social-cost", help="social cost of a profile")
    _add_game_flags(p)
    _add_common_flags(p)
    p.add_argument("--profile", required=True)
    p.set_defaults(func=_cmd_social_cost)

    p = sub.add_parser("pne", help="equilibrium check or enumeration")
    _add_game_flags(p)
    _add_common_flags(p)
    p.add_argument("--profile", default=None)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--gain-tol", type=float, default=1e-9)
    p.add_argument("--expect", choices=["pne", "no-pne", "empty", "nonempty"], default=None)
    p.set_defaults(func=_cmd_pne)

    p = sub.add_parser("ic", help="intervention-cost search")
    _add_game_flags(p)
    _add_common_flags(p)
    p.add_argument("--budget", type=int, default=10000)
    p.set_defaults(func=_cmd_ic)

    p = sub.add_parser("table1", help="summary table over n = 2..8")
    _add_common_flags(p)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--budget", type=int, default=2000)
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Every usage error (bad flags, files or values) ends here.
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
