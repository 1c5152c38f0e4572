"""Games under a non-uniform user density.

The quantile-based rule adapts its protected intervals to the distribution:
its interval ends sit at the odd quantiles, and the profile of odd-quantile
locations is the equilibrium.  Demonstrated on the ramp density g(t) = 2t,
whose CDF and quantile have simple closed forms, with a Monte Carlo
cross-check of the exact integrals.
"""

from hotelling_mediators import (
    GameSpec,
    Glime,
    PiecewiseLinearDensity,
    is_pne,
    mc_social_cost,
    payoff,
    quantile_locations,
    social_cost,
)


def main():
    ramp = PiecewiseLinearDensity((0.0, 1.0), (0.0, 2.0))
    print("Ramp density g(t) = 2t: cdf(t) = t^2, quantile(p) = sqrt(p)")
    for p in (0.25, 0.5, 0.75):
        print(f"  quantile({p}) = {ramp.quantile(p):.6f}")

    for n in (2, 3, 4):
        game = GameSpec(n, Glime(epsilon=1e-3), ramp)
        locs = quantile_locations(n, ramp)
        print(f"\n{n} players under the quantile rule")
        print(f"  odd-quantile locations: {tuple(round(s, 6) for s in locs)}")
        print(f"  protected intervals:    {tuple((round(a, 4), round(b, 4)) for a, b in game.piis)}")
        shares = payoff(game, locs)
        print(f"  payoffs (all 1/{n}):    {tuple(round(s, 9) for s in shares)}")
        report = is_pne(game, locs)
        print(f"  certified equilibrium:  {report.is_pne}")
        exact = social_cost(game, locs)
        approx, se = mc_social_cost(game, locs, n_samples=200_000, seed=n)
        print(f"  social cost: exact {exact:.6f}, sampled {approx:.6f} +- {se:.6f}")


if __name__ == "__main__":
    main()
