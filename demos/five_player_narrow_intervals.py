"""Five players, very narrow protected intervals.

With the configurable rule at lam = 1/10 the socially optimal locations are
the unique equilibrium.  Shrinking the intervals to lam = 1/40 changes the
picture: vacating an interval edge stops being punished enough, the optimal
locations fall apart, and the equilibrium agglomerates into pairs just
outside the two protected intervals - the classic unmediated five-player
arrangement.  This script recovers that profile by grid enumeration rather
than asserting it.

Takes a minute or two: the n=5 grid holds ~119k sorted profiles.
"""

import time

from hotelling_mediators import (
    Clime,
    GameSpec,
    intervention_gap,
    is_pne,
    optimal_locations,
    pne_enumerate,
    social_cost,
)


def main():
    wide = GameSpec(5, Clime(lam=1 / 10, epsilon=1e-3))
    print("lam = 1/10 (wide intervals):", wide.piis)
    opt = optimal_locations(5)
    print(f"  optimal locations {opt} certify: {is_pne(wide, opt).is_pne}")

    narrow = GameSpec(5, Clime(lam=1 / 40, epsilon=1e-3))
    print("\nlam = 1/40 (narrow intervals):", narrow.piis)
    print(f"  optimal locations certify: {is_pne(narrow, opt).is_pne}  (they no longer hold)")

    print("\nEnumerating the 1/24 grid (contains the suspected equilibrium) ...")
    start = time.perf_counter()
    found = pne_enumerate(narrow, 1 / 24, threads=2)
    print(f"  done in {time.perf_counter() - start:.0f}s")
    for profile in found:
        print(f"  equilibrium {tuple(round(s, 6) for s in profile)}"
              f"  SC = {social_cost(narrow, profile):.6f}"
              f"  gap vs no intervention = {intervention_gap(narrow, profile):.2e}")
    if found:
        print("\nPaired facilities at 1/6 and 5/6 sit just outside the protected")
        print("intervals (0.175, 0.225) and (0.775, 0.825): the narrow intervals")
        print("no longer keep the players apart, and the rule behaves like no")
        print("intervention at the rest point.")


if __name__ == "__main__":
    main()
