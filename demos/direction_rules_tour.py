"""Tour of the five direction rules, evaluated pointwise.

Every mediator maps (profile, user) to a distribution over players.  This
script walks a four-player profile past each rule and prints who serves whom,
then shows the compiled piecewise form that all exact integrals run on.
"""

from hotelling_mediators import (
    Clime,
    Dictator,
    GameSpec,
    Glime,
    Lime,
    Nime,
    compile_policy,
    direct,
)


def show(game, profile, users, label):
    print(f"\n{label}")
    print(f"  profile: {profile}")
    piis = game.piis
    if piis:
        print(f"  protected intervals: {piis}")
    for t in users:
        weights = direct(game, profile, t)
        print(f"  user {t:7.4f} -> " + ", ".join(f"{w:.3f}" for w in weights))


def main():
    # One facility left of every protected interval, one inside the first,
    # one at an interval edge, one inside the last.
    profile = (1 / 16, 4 / 16, 10 / 16, 12 / 16)
    users = (0.5 / 16, 3 / 16, 8 / 16, 13 / 16)

    show(GameSpec(4, Nime()), profile, users, "No intervention: plain nearest facility")
    show(
        GameSpec(4, Dictator()),
        profile,
        users,
        "Dictated targets: only players standing at their target serve anyone",
    )
    show(
        GameSpec(4, Lime(epsilon=0.1)),
        profile,
        users,
        "Limited intervention (epsilon=0.1): interval users skip inside facilities",
    )
    show(
        GameSpec(4, Glime(epsilon=0.1)),
        profile,
        users,
        "Quantile rule: interval users split 50/50 between the two sides",
    )
    show(
        GameSpec(4, Clime(lam=1 / 8, epsilon=0.1)),
        profile,
        users,
        "Configurable intervals (lam=1/8): only two intervals are protected",
    )

    print("\nCompiled policy for the limited-intervention rule:")
    pol = compile_policy(GameSpec(4, Lime(epsilon=0.1)), profile)
    for lo, hi, dist in pol.pieces:
        print(f"  ({lo:7.4f}, {hi:7.4f}) -> " + ", ".join(f"{w:.3f}" for w in dist))


if __name__ == "__main__":
    main()
