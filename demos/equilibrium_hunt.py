"""Finding and certifying pure Nash equilibria.

The exhaustive check is exact over the continuum of deviations: between the
kinks of a player's payoff line (opponents, interval edges, their
reflections) the payoff is a polynomial, so a few priced points per piece
give its supremum.  Grid enumeration first refutes most profiles fast with
a finite candidate set (opponent undercuts, interval edges, reference
locations), and the exact check decides every profile that set leaves.
This script certifies the known equilibria, enumerates whole grids, lets
better-response dynamics walk to a rest point, and shows the neutrality test
telling the dictator apart from the symmetric rules.
"""

from hotelling_mediators import (
    Clime,
    Dictator,
    GameSpec,
    Lime,
    Nime,
    better_response_dynamics,
    is_pne,
    neutrality_check,
    optimal_locations,
    pne_enumerate,
)


def main():
    print("Certification")
    game = GameSpec(4, Lime(epsilon=1e-3))
    report = is_pne(game, optimal_locations(4))
    print(f"  optimal locations under limited intervention: is_pne={report.is_pne}"
          f" (priced {report.candidate_count} deviations)")
    report = is_pne(game, (0.3, 0.4, 0.6, 0.9))
    print(f"  a perturbed profile: is_pne={report.is_pne}, witness={report.witness}")

    print("\nGrid enumeration (profiles canonicalized by sorting)")
    pairs = pne_enumerate(GameSpec(2, Nime()), 1 / 64)
    print(f"  no intervention, n=2, grid 1/64 : {pairs}")
    triples = pne_enumerate(GameSpec(3, Nime()), 1 / 60)
    print(f"  no intervention, n=3, grid 1/60 : {triples or 'none'}")
    lime_pairs = pne_enumerate(GameSpec(2, Lime(epsilon=1e-3)), 1 / 64)
    print(f"  limited intervention, n=2      : {lime_pairs}")
    clime3 = pne_enumerate(GameSpec(3, Clime(lam=1 / 12, epsilon=1e-3)), 1 / 24)
    print(f"  configurable, n=3, lam=1/12    : {clime3 or 'none'}")

    print("\nAnalytically known equilibrium sets")
    for game in (GameSpec(2, Nime()), GameSpec(5, Lime(epsilon=1e-3)),
                 GameSpec(2, Clime(lam=1 / 8, epsilon=1e-3))):
        print(f"  {game.mediator.kind:5s} n={game.n}: {game.mediator.known_pne(game.n, game.distribution)}")

    print("\nBetter-response dynamics")
    trace = better_response_dynamics(GameSpec(3, Dictator()), (0.2, 0.5, 0.9), max_steps=20, seed=0)
    print(f"  dictator pulls everyone to their targets in {trace.steps} moves:")
    for state in trace.states:
        print(f"    {tuple(round(s, 6) for s in state)}")
    trace = better_response_dynamics(GameSpec(2, Nime()), (0.1, 0.9), max_steps=300, seed=1)
    print(f"  unmediated duo walks to the center in {trace.steps} moves"
          f" (converged={trace.converged}), final {trace.states[-1]}")

    print("\nNeutrality (swapping two players' strategies must swap their payoffs)")
    ok, _ = neutrality_check(GameSpec(4, Lime(epsilon=1e-3)), trials=1000, seed=0)
    print(f"  limited intervention: neutral on sample = {ok}")
    ok, witness = neutrality_check(GameSpec(2, Dictator()), trials=1000, seed=0)
    profile, i, j, pi_i, pj = witness
    print(f"  dictator: neutral on sample = {ok}; witness profile {tuple(round(s, 4) for s in profile)}"
          f" gives player {i} payoff {pi_i:.3f} but {pj:.3f} after swapping with player {j}")


if __name__ == "__main__":
    main()
