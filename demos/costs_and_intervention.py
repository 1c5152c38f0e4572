"""Social cost, intervention gap, and how the mediators compare.

The intervention cost of a mediator is the worst-case damage it can do
relative to no intervention, over all profiles.  This script reproduces the
key numbers: the dictator's high cost, the limited-intervention sandwich, the
quantile rule sitting in between, and the two-player configurable rule whose
cost is exactly lam - lam^2.
"""

from hotelling_mediators import (
    Clime,
    Dictator,
    GameSpec,
    Glime,
    Lime,
    Nime,
    adversarial_profile,
    ic_search,
    intervention_gap,
    payoff,
    social_cost,
)


def fmt(x):
    return "      -" if x is None else f"{x:7.4f}"


def main():
    print("Costs at hand-picked profiles")
    game = GameSpec(2, Nime())
    print(f"  paired center, no intervention : SC = {social_cost(game, (0.5, 0.5)):.6f}")
    game = GameSpec(4, Nime())
    opt4 = (1 / 8, 3 / 8, 5 / 8, 7 / 8)
    print(f"  optimal four-player locations  : SC = {social_cost(game, opt4):.6f} (= 1/16)")
    game = GameSpec(2, Dictator())
    print(f"  dictator, everyone disobeys    : SC = {social_cost(game, (0.0, 1.0)):.6f}")
    print(f"  ... and the matching payoffs   : {payoff(game, (0.0, 1.0))}")

    print("\nWorst-case intervention damage (search vs proven bounds), uniform users")
    print("  mediator    n   fixture    search    lower      upper")
    rows = [
        (GameSpec(4, Nime()), "nime"),
        (GameSpec(4, Dictator()), "dict"),
        (GameSpec(4, Lime(epsilon=1e-3)), "lime"),
        (GameSpec(4, Glime(epsilon=1e-3)), "glime"),
        (GameSpec(2, Clime(lam=1 / 8, epsilon=1e-3)), "clime"),
    ]
    for game, name in rows:
        est = ic_search(game, budget=20_000, seed=0)
        print(
            f"  {name:8s} {game.n:4d}   {fmt(est.fixture_lower)}  {fmt(est.search_lower)}"
            f"  {fmt(est.analytic_lower)}  {fmt(est.analytic_upper)}"
        )

    print("\nAdversarial profiles behind the fixtures")
    for kind, n in (("dict", 4), ("lime", 4), ("glime", 4), ("clime", 2)):
        prof = adversarial_profile(kind, n, 1e-3)
        game = GameSpec(n, {"dict": Dictator(), "lime": Lime(epsilon=1e-3),
                            "glime": Glime(epsilon=1e-3), "clime": Clime(lam=1 / 8, epsilon=1e-3)}[kind])
        print(f"  {kind:5s} n={n}: {tuple(round(s, 6) for s in prof)}"
              f"  gap = {intervention_gap(game, prof):.6f}")

    lam = 1 / 8
    lower, upper = Clime(lam=lam).ic_bounds(2)
    print(f"\nTwo-player configurable rule: cost equals lam - lam^2 = {lower:.6f} (= {upper:.6f})")


if __name__ == "__main__":
    main()
