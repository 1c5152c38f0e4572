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
2 on usage errors, among them an ``--expect`` verdict the mode never gives
(``empty``/``nonempty`` with ``--profile``, ``pne``/``no-pne`` with
``--enumerate``).  Every randomized command is reproducible from its seed,
independent of ``--threads``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import _MEDIATORS, UNIFORM, Dictator, GameSpec, Lime, Nime, _integer, distribution_from_json, mediator_from_json
from .equilibrium import is_pne, pne_enumerate
from .metrics import ic_search, payoff, social_cost

__all__ = ["main"]


def _cell(v):
    """One CSV field: None empty, a bool ``true``/``false``, an int as is, a
    float to 12 significant digits, a string as is, a sequence ``;``-joined."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, str)):
        return str(v)
    if isinstance(v, (list, tuple)):
        return ";".join(_cell(x) for x in v)
    return f"{v:.12g}"


def _parse_locations(flag, text):
    """The floats of the comma-separated list ``text`` of ``flag``; the
    library judges their count and range."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _build_game(args):
    """The game of the flags: the mediator flags the user gave become its
    wire object, which the mediator's own record parses, so a flag the kind
    does not read is an error there."""
    dist = UNIFORM
    if args.distribution:
        with open(args.distribution) as fh:
            try:
                obj = json.load(fh)
            except RecursionError:
                raise ValueError(f"{args.distribution}: JSON nested too deeply") from None
        dist = distribution_from_json(obj)
    wire = {"kind": args.mediator, "epsilon": args.epsilon, "lambda": args.lam, "equalityTol": args.equality_tol}
    if args.targets is not None:
        wire["targets"] = _parse_locations("--targets", args.targets)
    wire = {key: value for key, value in wire.items() if value is not None}
    return GameSpec(n=args.n, mediator=mediator_from_json(wire), distribution=dist)


def _emit(args, json_obj, rows, header=None):
    """Print ``json_obj``, or the ``header`` line and ``rows`` as CSV lines
    of :func:`_cell` fields."""
    if args.format == "json":
        print(json.dumps(json_obj))
        return
    if header:
        print(header)
    for row in rows:
        print(",".join(_cell(v) for v in row))


def _cmd_payoff(args):
    values = payoff(_build_game(args), _parse_locations("--profile", args.profile))
    _emit(args, {"payoffs": list(values)}, [values])
    return 0


def _cmd_social_cost(args):
    value = social_cost(_build_game(args), _parse_locations("--profile", args.profile))
    _emit(args, {"socialCost": value}, [[value]])
    return 0


def _check_expect(expect, verdict_name):
    if expect is None:
        return 0
    return 0 if expect == verdict_name else 1


# The ``--expect`` verdicts each mode of ``pne`` can give, keyed by
# ``--enumerate``.
_VERDICTS = {False: ("pne", "no-pne"), True: ("empty", "nonempty")}


def _cmd_pne(args):
    _integer("threads", args.threads, 1)
    verdicts = _VERDICTS[args.enumerate]
    if args.expect is not None and args.expect not in verdicts:
        mode = "--enumerate" if args.enumerate else "--profile"
        raise ValueError(f"--expect {args.expect} never matches {mode}, which expects one of {', '.join(verdicts)}")
    # Each mode refuses the other mode's flag rather than dropping it.
    if args.enumerate and args.profile is not None:
        raise ValueError("--profile and --enumerate exclude each other")
    if not args.enumerate and args.grid_step is not None:
        raise ValueError("--grid-step needs --enumerate")
    game = _build_game(args)
    if args.enumerate:
        if args.grid_step is None:
            raise ValueError("--enumerate requires --grid-step")
        profiles = pne_enumerate(game, args.grid_step, gain_tol=args.gain_tol, threads=args.threads)
        _emit(args, {"profiles": [list(p) for p in profiles]}, profiles or [["<empty>"]])
        return _check_expect(args.expect, "empty" if not profiles else "nonempty")
    if not args.profile:
        raise ValueError("pne needs --profile or --enumerate")
    report = is_pne(game, _parse_locations("--profile", args.profile), gain_tol=args.gain_tol)
    player, deviation = report.witness or (None, None)
    row = [report.is_pne, report.worst_gain, player, deviation, report.candidate_count, report.gain_tol]
    header = "isPne,worstGain,witnessPlayer,witnessDeviation,candidateCount,gainTol"
    _emit(args, report.to_json(), [row], header)
    return _check_expect(args.expect, "pne" if report.is_pne else "no-pne")


def _cmd_ic(args):
    est = ic_search(_build_game(args), budget=args.budget, seed=args.seed, threads=args.threads)
    obj = est.to_json()
    row = {**obj, "mediator": obj["mediator"]["kind"]}
    _emit(args, obj, [row.values()], ",".join(row))
    return 0


def _cmd_table1(args):
    rows = []
    for n in range(2, 9):
        optimal = 1.0 / (4 * n)
        best, worst = Nime().pne_costs(n)
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
    # A missing no-intervention equilibrium cost reads "no PNE", not empty.
    csv_rows = [["no PNE" if v is None and k.startswith("nime") else v for k, v in r.items()] for r in rows]
    _emit(args, {"rows": rows}, csv_rows, ",".join(rows[0]))
    return 0


def _add_game_flags(p):
    p.add_argument("--mediator", required=True, choices=list(_MEDIATORS))
    p.add_argument("--n", type=int, required=True, help="number of players")
    # No defaults: a flag left out is left to the mediator's record.
    p.add_argument("--epsilon", type=float, default=None, help="random-redirect weight")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="clime interval half-width")
    p.add_argument("--targets", default=None, help="dictated targets, comma-separated")
    p.add_argument("--equality-tol", type=float, default=None, help="dictator obedience tolerance")
    p.add_argument("--distribution", default=None, help="JSON file with the user distribution")


def _add_common_flags(p, seed=False, threads=False):
    """``--format``, plus ``--seed`` and ``--threads`` on the subcommands
    that read them."""
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if threads:
        p.add_argument("--threads", type=int, default=1)


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and every call of :func:`main` reuses it."""
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
    _add_common_flags(p, threads=True)
    p.add_argument("--profile", default=None)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--gain-tol", type=float, default=1e-9)
    p.add_argument("--expect", choices=["pne", "no-pne", "empty", "nonempty"], default=None)
    p.set_defaults(func=_cmd_pne)

    p = sub.add_parser("ic", help="intervention-cost search")
    _add_game_flags(p)
    _add_common_flags(p, seed=True, threads=True)
    p.add_argument("--budget", type=int, default=10000)
    p.set_defaults(func=_cmd_ic)

    p = sub.add_parser("table1", help="summary table over n = 2..8")
    _add_common_flags(p, seed=True, threads=True)
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
