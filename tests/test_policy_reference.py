"""The linear-size policy compiler against the all-pairs reference compiler.

The reference below is the compiler as it stood before compilation became
linear-size: every pairwise facility midpoint is a candidate breakpoint and
the pointwise rule recomputes the outside facilities of the user's interval
on every call.  It is O(n^3) per profile and kept here only as the oracle.
Values are compared within 1e-15 rather than bitwise: the float rule can
switch one ulp past 0.5*(a+b), and the all-pairs set sometimes holds a second
midpoint right there, which moves a piece boundary by an ulp.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from hotelling_mediators import (
    Clime,
    Dictator,
    GameSpec,
    Glime,
    Lime,
    Nime,
    PiecewiseLinearDensity,
    UNIFORM,
    compile_policy,
    direct,
    intervention_gap,
    payoff,
    quantile_locations,
    social_cost,
)
from hotelling_mediators import metrics
from hotelling_mediators.mediators import _nearest_weights, _snap_to_endpoints

AGREE_TOL = 1e-15

RAMP = PiecewiseLinearDensity((0.0, 1.0), (0.0, 2.0))
ZIGZAG = PiecewiseLinearDensity((0.0, 0.25, 0.5, 0.75, 1.0), (0.5, 1.5, 0.5, 1.5, 0.5))
DENSITIES = {"uniform": UNIFORM, "ramp": RAMP, "zigzag": ZIGZAG}
NS = (2, 3, 4, 5, 6, 8, 12, 16, 32)


def _mediators(n):
    return {
        "nime": Nime(),
        "dict": Dictator(),
        "lime": Lime(epsilon=1e-2),
        "glime": Glime(epsilon=1e-2),
        "clime": Clime(lam=min(1 / 8, 1 / (2 * n)), epsilon=1e-2),
    }


def _custom_dictator(n):
    """A dictator with unsorted, unevenly spaced targets and a wide obedience
    band; :func:`_profiles` snaps coordinates onto the targets, so profiles
    with none, some and all players obeying occur."""
    return Dictator(targets=tuple(0.95 - 0.9 * (k / (n - 1)) ** 2 for k in range(n)), equality_tol=0.2)


# ---------------------------------------------------------------------------
# Reference compiler
# ---------------------------------------------------------------------------


def _reference_limited(locs, t, piis, epsilon, half_split):
    n = len(locs)
    for lo, hi in piis:
        if lo < t < hi:
            left = [i for i in range(n) if locs[i] <= lo]
            right = [i for i in range(n) if locs[i] >= hi]
            if left and right:
                if half_split:
                    wl = _nearest_weights(locs, t, left)
                    wr = _nearest_weights(locs, t, right)
                    return tuple(0.5 * a + 0.5 * b for a, b in zip(wl, wr))
                return _nearest_weights(locs, t, left + right)
            if left or right:
                w = _nearest_weights(locs, t, left or right)
                keep = 1.0 - epsilon
                u = epsilon / n
                return tuple(keep * x + u for x in w)
            return _nearest_weights(locs, t, range(len(locs)))
    return _nearest_weights(locs, t, range(len(locs)))


def _reference_rule(game, locs):
    m = game.mediator
    if isinstance(m, Nime):
        return lambda t: _nearest_weights(locs, t, range(len(locs)))
    if isinstance(m, Dictator):
        obeying = [i for i in range(len(locs)) if abs(locs[i] - m.targets[i]) <= m.equality_tol]
        if obeying:
            return lambda t: _nearest_weights(locs, t, obeying)
        uniform = (1.0 / len(locs),) * len(locs)
        return lambda t: uniform
    piis = game.piis
    half = isinstance(m, Glime)
    snapped = _snap_to_endpoints(game, locs)
    return lambda t: _reference_limited(snapped, t, piis, m.epsilon, half)


def _policy_breakpoints(locs, piis):
    """All-pairs candidate set: facilities, every pairwise midpoint, interval
    endpoints, 0 and 1."""
    n = len(locs)
    points = {0.0, 1.0}
    points.update(locs)
    for i in range(n):
        for j in range(i + 1, n):
            if locs[i] != locs[j]:
                points.add(0.5 * (locs[i] + locs[j]))
    for lo, hi in piis:
        points.add(lo)
        points.add(hi)
    return sorted(p for p in points if 0.0 <= p <= 1.0)


def _reference_compiled_pieces(game, locs):
    piis = game.piis
    locs = _snap_to_endpoints(game, locs)
    rule = _reference_rule(game, locs)
    bps = _policy_breakpoints(locs, piis)
    pieces = []
    for k in range(len(bps) - 1):
        lo, hi = bps[k], bps[k + 1]
        if hi <= lo:
            continue
        d = rule(0.5 * (lo + hi))
        if pieces and pieces[-1][2] == d:
            pieces[-1] = (pieces[-1][0], hi, d)
        else:
            pieces.append((lo, hi, d))
    return locs, bps, pieces, rule, {}, [None, None]


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def _profiles(rng, game, count):
    """Profiles mixing uniform draws with coordinates snapped onto anchors,
    on the 1/120 grid, duplicated, or just off interval endpoints (inside
    the facility snap at 5e-8, outside it at 1e-6)."""
    n = game.n
    m = game.mediator
    anchors = m.targets if isinstance(m, Dictator) else quantile_locations(n, game.distribution)
    piis = game.piis or Lime().intervals(n, UNIFORM)
    endpoints = sorted({e for pii in piis for e in pii})
    out = []
    for _ in range(count):
        locs = []
        for _ in range(n):
            kind = rng.integers(6)
            if kind == 0:
                s = float(rng.random())
            elif kind == 1:
                s = float(anchors[rng.integers(n)])
            elif kind == 2:
                s = int(rng.integers(121)) / 120
            elif kind == 3 and locs:
                s = locs[rng.integers(len(locs))]
            else:
                offset = (0.0, 5e-8, -5e-8, 1e-6, -1e-6)[rng.integers(5)]
                s = endpoints[rng.integers(len(endpoints))] + offset
            locs.append(min(max(s, 0.0), 1.0))
        out.append(tuple(locs))
    return out


# The games of the property tests: the five mediators under the three
# densities, n = 2..5.  Every drawn example is checked in all of them.
PROPERTY_GAMES = [GameSpec(n, m, d) for n in range(2, 6) for m in _mediators(n).values() for d in DENSITIES.values()]

# Five coordinates, each a uniform draw or the index of an anchor.
COORDS = st.lists(st.one_of(st.floats(0.0, 1.0), st.integers(0, 15)), min_size=5, max_size=5)


def anchored(game, coords):
    """The profile of ``game`` that reads the first n of ``coords``: a float
    as is, an integer k as the k-th (cyclically) of the game's reference
    locations, dictated targets and interval endpoints."""
    anchors = [*quantile_locations(game.n, game.distribution), *game.mediator.targets]
    anchors += [e for pii in game.piis for e in pii]
    return tuple(c if isinstance(c, float) else anchors[c % len(anchors)] for c in coords[: game.n])


def _count(n):
    return 24 if n <= 6 else 8 if n <= 16 else 4


@pytest.mark.parametrize("density", sorted(DENSITIES))
@pytest.mark.parametrize("n", NS)
def test_agrees_with_all_pairs_reference(n, density, monkeypatch):
    rng = np.random.default_rng([n, len(density)])
    for name, mediator in {**_mediators(n), "dict-custom": _custom_dictator(n)}.items():
        game = GameSpec(n, mediator, DENSITIES[density])
        for profile in _profiles(rng, game, _count(n)):
            policy = compile_policy(game, profile)
            assert len(policy.point_dists) <= n + 1 + 3 * len(game.piis), (name, profile)

            got = (payoff(game, profile), social_cost(game, profile), intervention_gap(game, profile))
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "_compiled_pieces", _reference_compiled_pieces)
                want = (payoff(game, profile), social_cost(game, profile), intervention_gap(game, profile))
            for a, b in zip(got[0], want[0]):
                assert abs(a - b) <= AGREE_TOL, (name, profile, got[0], want[0])
            assert abs(got[1] - want[1]) <= AGREE_TOL, (name, profile, got[1], want[1])
            assert abs(got[2] - want[2]) <= AGREE_TOL, (name, profile, got[2], want[2])

            # The bound rule is the reference rule, bitwise, everywhere.
            _, ref_bps, _, ref_rule, *_ = _reference_compiled_pieces(game, profile)
            for t in ref_bps + [float(t) for t in rng.random(8)]:
                assert direct(game, profile, t) == ref_rule(t), (name, profile, t)


@pytest.mark.parametrize("density", sorted(DENSITIES))
@pytest.mark.parametrize("n", NS)
def test_policy_is_the_rule_at_facilities_and_breakpoints(n, density):
    # Facilities are no candidate breakpoints, so a compiled policy answers
    # at a facility from the piece around it; that must still be the rule.
    rng = np.random.default_rng([n, len(density), 17])
    for name, mediator in _mediators(n).items():
        game = GameSpec(n, mediator, DENSITIES[density])
        for profile in _profiles(rng, game, _count(n)):
            policy = compile_policy(game, profile)
            for t in (*profile, *policy.point_dists):
                assert policy.evaluate(t) == direct(game, profile, t), (name, profile, t)
