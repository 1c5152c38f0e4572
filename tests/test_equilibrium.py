"""Equilibrium certification, enumeration, dynamics, and neutrality."""

import json
import logging
import math
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, islice
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotelling_mediators import (
    Clime,
    Dictator,
    GameSpec,
    Glime,
    Lime,
    Nime,
    PiecewiseLinearDensity,
    better_response_dynamics,
    is_pne,
    known_pne,
    neutrality_check,
    optimal_locations,
    payoff,
    pne_enumerate,
    quantile_locations,
    social_cost,
)
from hotelling_mediators import equilibrium
from hotelling_mediators.core import Mediator
from hotelling_mediators.equilibrium import (
    _enumerate_chunk,
    _grid_blocks,
    _lines_max,
    _probe,
    _probe_plan,
    _refute_fast,
    _refute_rows,
)
from hotelling_mediators.mediators import _line_kinks
from hotelling_mediators.metrics import _block_rows, _payoff_locs, _payoff_rows, _price_rows

from test_core import RANDOM_DENSITIES
from test_policy_reference import DENSITIES, ZIGZAG, _mediators, _profiles

RAMP = PiecewiseLinearDensity((0.0, 1.0), (0.0, 2.0))
DELTA = 1e-6
# A zigzag under which the old finite candidate set missed deviations.
NIME_ZIGZAG = PiecewiseLinearDensity((0.0, 0.3, 0.6, 1.0), tuple(v / 0.935 for v in (0.5, 1.6, 0.4, 1.2)))


@dataclass(frozen=True)
class Zoned(Mediator):
    """A record written to the protocol alone: player i may serve only while
    it stands in its zone [i/n, i/n + 1/2]."""

    kind: ClassVar[str] = "zoned"

    def eligible(self, locs):
        n = len(locs)
        return [i for i, s in enumerate(locs) if i / n <= s <= i / n + 0.5]

    def eligible_rows(self, locs):
        lo = np.arange(len(locs))[:, None] / len(locs)
        return (lo <= locs) & (locs <= lo + 0.5)

    def switch_points(self, locs, player):
        return (player / len(locs), player / len(locs) + 0.5)


@dataclass(frozen=True)
class Banded(Mediator):
    """Dictated targets, the socially optimal locations, with an obedience
    band of its own width and no ``equality_tol``."""

    targets: tuple | None = None
    width: float = 0.1

    kind: ClassVar[str] = "banded"

    def bind(self, n):
        return replace(self, targets=optimal_locations(n))

    def eligible(self, locs):
        return [i for i, s in enumerate(locs) if abs(s - self.targets[i]) <= self.width]

    def eligible_rows(self, locs):
        return np.abs(locs - np.asarray(self.targets)[:, None]) <= self.width

    def switch_points(self, locs, player):
        t = self.targets[player]
        return (t - self.width, t, t + self.width)


def _switching_mediators(n):
    """The built-in records, then two that declare their own switch points."""
    return {**_mediators(n), "zoned": Zoned(), "banded": Banded()}


def contains_all(candidates, points, tol=0.0):
    return all(any(abs(c - p) <= tol for c in candidates) for p in points)


def _candidates(game, profile, player, plan=None):
    """``player``'s entries of the probe plan (``game``'s own unless
    ``plan`` is given) at ``profile``, deduplicated in plan order."""
    entries = _probe_plan(game) if plan is None else plan
    return list(dict.fromkeys(_probe(profile, e) for e in entries if e[0] == player))


def _candidate_gain(game, profile, player):
    """The best gain of ``player`` over its probe-plan candidates, each priced
    alone, as ``(gain, argmax)``: the first candidate with the largest."""
    base = payoff(game, profile)[player]
    gains = {y: _payoff_at(game, profile, player, y) - base for y in _candidates(game, profile, player)}
    best = max(gains, key=gains.__getitem__)
    return gains[best], best


class TestCandidates:
    def test_nime_pair_candidates(self):
        game = GameSpec(2, Nime())
        got = _candidates(game, (0.5, 0.5), 0)
        expected = [0.0, 0.5 - DELTA, 0.5, 0.5 + DELTA, 0.25, 0.75, 1.0, 0.25, 0.5, 0.75]
        assert contains_all(got, expected)

    def test_lime_interval_edges_probed(self):
        game = GameSpec(3, Lime(epsilon=1e-3))
        got = _candidates(game, optimal_locations(3), 0)
        edges = [1 / 6, 0.5, 5 / 6]
        probes = edges + [e - DELTA for e in edges] + [e + DELTA for e in edges]
        assert contains_all(got, probes)

    def test_clime_lambda_edges_probed(self):
        game = GameSpec(2, Clime(lam=1 / 8, epsilon=1e-3))
        got = _candidates(game, (0.1, 0.9), 1)
        assert contains_all(got, [3 / 8 - DELTA, 3 / 8, 3 / 8 + DELTA, 5 / 8 - DELTA, 5 / 8, 5 / 8 + DELTA])

    def test_deduplicated_and_clipped(self):
        game = GameSpec(2, Nime())
        got = _candidates(game, (0.0, 1.0), 0)
        assert len(got) == len(set(got))
        assert all(0.0 <= c <= 1.0 for c in got)


class TestBestResponse:
    def test_undercutting_gain(self):
        game = GameSpec(2, Nime())
        gain, where = _candidate_gain(game, (0.25, 0.75), 0)
        assert abs(gain - 0.25) <= 1e-5
        assert abs(where - (0.75 - DELTA)) <= 1e-12

    def test_no_gain_at_limited_intervention_optimum(self):
        game = GameSpec(3, Lime(epsilon=1e-3))
        profile = optimal_locations(3)
        gain, _ = _candidate_gain(game, profile, 1)
        assert gain <= 0.0

    def test_no_gain_under_dictated_targets(self):
        game = GameSpec(2, Dictator())
        profile = (0.25, 0.75)
        gain, _ = _candidate_gain(game, profile, 0)
        assert gain <= 0.0


class TestIsPne:
    def test_lime_optimum_certified(self):
        game = GameSpec(4, Lime(epsilon=1e-3))
        report = is_pne(game, optimal_locations(4))
        assert report.is_pne and report.witness is None
        assert report.worst_gain <= report.gain_tol

    def test_lime_two_player_set(self):
        game = GameSpec(2, Lime(epsilon=1e-3))
        assert is_pne(game, (0.25, 0.75)).is_pne
        report = is_pne(game, (0.3, 0.7))
        assert not report.is_pne and report.witness is not None

    def test_nime_center_pair(self):
        assert is_pne(GameSpec(2, Nime()), (0.5, 0.5)).is_pne

    def test_clime_four_player_profile(self):
        game = GameSpec(4, Clime(lam=1 / 8, epsilon=1e-3))
        assert is_pne(game, (1 / 8, 3 / 8, 5 / 8, 7 / 8)).is_pne

    @pytest.mark.parametrize("profile", [optimal_locations(5), (0.1, 0.3, 0.5, 0.7, 0.95)])
    def test_fast_check_counts_its_probes(self, profile, monkeypatch):
        calls = []
        payoff_locs, payoff_rows = equilibrium._payoff_locs, equilibrium._payoff_rows

        def counting(game, locs):
            calls.append(locs)
            return payoff_locs(game, locs)

        def counting_rows(game, rows):
            calls.extend(tuple(row) for row in rows.tolist())
            return payoff_rows(game, rows)

        monkeypatch.setattr(equilibrium, "_payoff_locs", counting)
        monkeypatch.setattr(equilibrium, "_payoff_rows", counting_rows)
        report = is_pne(GameSpec(5, Lime(epsilon=1e-3)), profile, exhaustive=False)
        assert report.is_pne == (profile == optimal_locations(5))
        # One call prices the profile itself; every other one is a probe,
        # and every row a deviation of the exact check the optimum goes on
        # to after the plan.
        assert report.candidate_count == len(calls) - 1

    def test_fast_check_tries_every_player_before_a_second_probe(self):
        # Players 2, 1 and 0 miss with their first probe and player 2 with
        # its second; player 1's second refutes the profile.  Walked player
        # by player, the plan takes 15 probes to reach a refutation.
        report = is_pne(GameSpec(3, Lime(epsilon=1e-3)), (0.153, 0.713, 0.809), exhaustive=False)
        assert not report.is_pne
        assert report.witness == (1, 0.809 + DELTA)
        assert report.candidate_count == 5

    @pytest.mark.parametrize("exhaustive", ["False", "no", 1, 0, None, 1.0, np.int64(0)])
    def test_exhaustive_must_be_a_bool(self, exhaustive):
        # A truthy string or 1 used to run the exhaustive check, and None or
        # 0 the early exit.
        with pytest.raises(ValueError, match="exhaustive"):
            is_pne(GameSpec(2, Nime()), (0.5, 0.5), exhaustive=exhaustive)

    def test_numpy_bools_choose_the_mode(self):
        game = GameSpec(3, Lime(epsilon=1e-3))
        profile = (0.153, 0.713, 0.809)
        for flag in (True, False):
            assert is_pne(game, profile, exhaustive=np.bool_(flag)) == is_pne(game, profile, exhaustive=flag)

    @pytest.mark.parametrize(
        "game, profile, gain_tol",
        [
            (GameSpec(5, Lime(epsilon=1e-3)), optimal_locations(5), 1e-9),
            (GameSpec(5, Lime(epsilon=1e-3)), (0.1, 0.3, 0.5, 0.7, 0.95), 1e-9),
            (GameSpec(3, Glime(epsilon=1e-3), ZIGZAG), (0.2, 0.45, 0.8), 1e-9),
            (GameSpec(3, Nime(), NIME_ZIGZAG), (0.81522, 0.72999, 0.11320), 1e-9),
            (GameSpec(3, Nime()), (0.25, 0.5, 0.75), 0.12),
        ],
        ids=["lime5-optimum", "lime5-off", "glime3-zigzag", "nime3-zigzag", "nime3-limit-witness"],
    )
    def test_exhaustive_check_counts_its_payoffs(self, game, profile, gain_tol, monkeypatch):
        calls = []
        payoff_locs, payoff_rows = equilibrium._payoff_locs, equilibrium._payoff_rows

        def counting(game, locs):
            calls.append(locs)
            return payoff_locs(game, locs)

        def counting_rows(game, rows):
            calls.extend(tuple(row) for row in rows.tolist())
            return payoff_rows(game, rows)

        monkeypatch.setattr(equilibrium, "_payoff_locs", counting)
        monkeypatch.setattr(equilibrium, "_payoff_rows", counting_rows)
        report = is_pne(game, profile, gain_tol=gain_tol)
        # One scalar call prices the profile itself; every other call and
        # every row is a deviation.
        assert report.candidate_count == len(calls) - 1
        assert all(sum(a != b for a, b in zip(locs, profile)) <= 1 for locs in calls)

    def test_report_json(self):
        report = is_pne(GameSpec(2, Nime()), (0.4, 0.9))
        blob = report.to_json()
        assert blob["isPne"] is False
        assert set(blob["witness"]) == {"player", "deviation"}
        # Every verdict is exact, so no report names a grid.
        assert "gridStep" not in blob
        assert "gridStep" not in is_pne(GameSpec(2, Nime()), (0.4, 0.9), exhaustive=False).to_json()
        assert not hasattr(report, "grid_step")

    def test_early_exit_reports_the_exact_supremum_of_an_equilibrium(self):
        # The plan does not refute the centre pair, so the exact check
        # decides it.  The early exit used to report worst_gain=-inf, which
        # to_json wrote as -Infinity, no strict JSON.
        game = GameSpec(2, Nime())
        fast = is_pne(game, (0.5, 0.5), exhaustive=False)
        full = is_pne(game, (0.5, 0.5))
        assert fast.is_pne and math.isfinite(fast.worst_gain)
        assert fast.worst_gain == full.worst_gain
        json.dumps(fast.to_json(), allow_nan=False)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_early_exit_agrees_with_the_exhaustive_check(self, n):
        # The same verdict; a profile the plan does not refute gets the
        # exhaustive report bit for bit but for the probes it counts, and a
        # refutation's witness really gains more than gain_tol.
        rng = np.random.default_rng([n, 22])
        for name, mediator in _mediators(n).items():
            game = GameSpec(n, mediator)
            profiles = [tuple(p) for p in _profiles(rng, game, 4)] + (known_pne(game) or [])
            for profile in profiles:
                fast, full = is_pne(game, profile, exhaustive=False), is_pne(game, profile)
                assert fast.is_pne == full.is_pne, (name, profile)
                probes, hit, _ = _refute_fast(game, profile, 1e-9)
                if hit is None:
                    assert fast.worst_gain == full.worst_gain and fast.witness == full.witness
                    assert fast.candidate_count == probes + full.candidate_count
                else:
                    assert _gain(game, profile, *fast.witness) > fast.gain_tol


def _dense_max(game, profile, player):
    """The best of 2,001 evenly spaced deviations of ``player``."""
    rows = np.repeat([profile], 2001, axis=0)
    rows[:, player] = np.linspace(0.0, 1.0, 2001)
    return _payoff_rows(game, rows)[:, player].max()


def _payoff_at(game, profile, player, y):
    trial = list(profile)
    trial[player] = y
    return payoff(game, trial)[player]


def _gain(game, profile, player, y):
    return _payoff_at(game, profile, player, y) - payoff(game, profile)[player]


class TestExactLine:
    def test_nime_zigzag_interior_maximum(self):
        # Player 0's best deviation, y ~ 0.165, is the interior maximum of a
        # concave quadratic piece; no candidate of the finite set lands there.
        game = GameSpec(3, Nime(), NIME_ZIGZAG)
        profile = (0.81522, 0.72999, 0.11320)
        candidate_gain, _ = _candidate_gain(game, profile, 0)
        sup, (y, value), limit, _ = _lines_max(game, profile, [0])[0]
        assert sup - payoff(game, profile)[0] >= candidate_gain + 2.5e-5
        assert limit is None and value == sup and abs(y - 0.165) <= 1e-3

    @pytest.mark.parametrize("density", sorted(DENSITIES))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_gain_bounds_the_candidate_gain(self, n, density):
        rng = np.random.default_rng([n, len(density), 17])
        for name, mediator in _mediators(n).items():
            game = GameSpec(n, mediator, DENSITIES[density])
            for profile in _profiles(rng, game, 3):
                base = payoff(game, profile)
                for player in range(n):
                    gain, _ = _candidate_gain(game, profile, player)
                    assert _lines_max(game, profile, [player])[0][0] - base[player] >= gain - 1e-12, (name, profile, player)

    @pytest.mark.parametrize("density", sorted(DENSITIES))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_payoff_is_a_polynomial_between_kinks(self, n, density):
        # Through deg + 1 points of a piece between consecutive kinks, the
        # interpolating polynomial predicts two more points of the piece.
        dist = DENSITIES[density]
        deg = 1 if density == "uniform" else 2
        fit_at = (0.15, 0.85) if deg == 1 else (0.15, 0.5, 0.85)
        rng = np.random.default_rng([n, len(density), 23])
        for name, mediator in _switching_mediators(n).items():
            game = GameSpec(n, mediator, dist)
            for profile in _profiles(rng, game, 3):
                for player in range(n):
                    kinks, _ = _line_kinks(game, profile, player)
                    for a, b in zip(kinks, kinks[1:]):
                        if b - a < 1e-6:
                            continue
                        f = {s: _payoff_at(game, profile, player, a + (b - a) * s) for s in (*fit_at, 0.3, 0.7)}
                        for s in (0.3, 0.7):
                            want = sum(
                                f[x] * math.prod((s - z) / (x - z) for z in fit_at if z != x) for x in fit_at
                            )
                            assert abs(f[s] - want) <= 1e-12, (name, profile, player, a, b, s)

    @settings(max_examples=30)
    @given(st.data())
    def test_no_dense_deviation_beats_the_exact_gain(self, data):
        n = data.draw(st.integers(2, 4))
        mediator = data.draw(st.sampled_from(sorted(_switching_mediators(n).items())))[1]
        dist = DENSITIES[data.draw(st.sampled_from(sorted(DENSITIES)))]
        game = GameSpec(n, mediator, dist)
        anchors = [*optimal_locations(n), *quantile_locations(n, dist), *(e for pii in game.piis for e in pii)]
        coord = st.one_of(st.floats(0.0, 1.0), st.sampled_from(anchors))
        profile = data.draw(st.tuples(*[coord] * n))
        player = data.draw(st.integers(0, n - 1))
        sup = _lines_max(game, profile, [player])[0][0]
        assert _dense_max(game, profile, player) <= sup + 1e-12

    @pytest.mark.parametrize("name", ["zoned", "banded"])
    def test_declared_switch_points_match_the_dense_grid(self, name):
        # A record's own switch points are kinks of every line, so the exact
        # gain neither misses nor invents a deviation the dense grid finds.
        rng = np.random.default_rng(len(name))
        for n in (2, 3, 4):
            game = GameSpec(n, _switching_mediators(n)[name], DENSITIES["zigzag" if n == 3 else "uniform"])
            profiles = [tuple(rng.random(n)) for _ in range(8)] + [optimal_locations(n)]
            for profile in profiles + ([(0.3, 0.7), (0.2, 0.8)] if n == 2 else []):
                base = payoff(game, profile)
                for player in range(n):
                    dense = _dense_max(game, profile, player)
                    sup = _lines_max(game, profile, [player])[0][0]
                    assert dense <= sup + 1e-12 and sup <= dense + 2e-3, (profile, player)
                report = is_pne(game, profile)
                want = max(_dense_max(game, profile, p) - base[p] for p in range(n))
                assert abs(report.worst_gain - want) <= 2e-3, profile

    def test_refuted_profiles_have_priced_witnesses(self):
        # Non-equilibria drawn as criterion 5 draws them, checked exhaustively.
        rng = np.random.default_rng(555)
        for n in range(3, 7):
            game = GameSpec(n, Lime(epsilon=1e-3))
            opt = optimal_locations(n)
            checked = 0
            while checked < 25:
                profile = tuple(rng.random(n))
                if max(abs(a - b) for a, b in zip(sorted(profile), opt)) < 0.02:
                    continue
                report = is_pne(game, profile)
                assert not report.is_pne
                assert _gain(game, profile, *report.witness) > report.gain_tol, profile
                checked += 1

    def test_limit_witness_is_approached(self):
        # Only the one-sided limit at an opponent (gain 1/8) beats a 0.12
        # tolerance; points halving the way towards it find a witness.
        game = GameSpec(3, Nime())
        profile = (0.25, 0.5, 0.75)
        report = is_pne(game, profile, gain_tol=0.12)
        assert not report.is_pne and abs(report.worst_gain - 0.125) <= 1e-12
        assert 0.12 < _gain(game, profile, *report.witness) < 0.125


def _rows_one_at_a_time(game, rows):
    return np.array([_payoff_locs(game, tuple(row)) for row in rows.tolist()])


def _scalar_price_streams(game, locs, streams):
    # The reference: each deviation priced alone, no row block involved.
    return [{y: _payoff_locs(game, (*locs[:i], y, *locs[i + 1 :]))[i] for y in ys} for i, ys in streams]


NIME_CLASSICS = [
    (4, (0.25, 0.25, 0.75, 0.75)),
    (5, (1 / 6, 1 / 6, 0.5, 5 / 6, 5 / 6)),
    (6, (1 / 6, 1 / 6, 0.5, 0.5, 5 / 6, 5 / 6)),
]


def _scalar_report(game, profile, monkeypatch):
    """The exhaustive report's repr with the rows of each block priced one at
    a time, and again with every deviation priced alone; both must agree."""
    reports = []
    for name, stand_in in (("_payoff_rows", _rows_one_at_a_time), ("_price_streams", _scalar_price_streams)):
        with monkeypatch.context() as patch:
            patch.setattr(equilibrium, name, stand_in)
            reports.append(repr(is_pne(game, profile)))
    assert reports[0] == reports[1], profile
    return reports[0]


class TestRowPricedLines:
    """Exhaustive checks price each deviation line as blocks of rows; every
    report must equal pricing the deviations one at a time."""

    @pytest.mark.parametrize("density", sorted(DENSITIES))
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_reports_equal_scalar_pricing(self, n, density, monkeypatch):
        rng = np.random.default_rng([n, len(density), 29])
        for name, mediator in _mediators(n).items():
            game = GameSpec(n, mediator, DENSITIES[density])
            for profile in _profiles(rng, game, 3) + (known_pne(game) or []):
                got = repr(is_pne(game, profile))
                assert got == _scalar_report(game, profile, monkeypatch), (name, profile)

    @pytest.mark.parametrize("n, profile", NIME_CLASSICS, ids=[f"n{n}" for n, _ in NIME_CLASSICS])
    def test_nime_classics_equal_scalar_pricing(self, n, profile, monkeypatch):
        game = GameSpec(n, Nime())
        got = is_pne(game, profile)
        assert got.is_pne and repr(got) == _scalar_report(game, profile, monkeypatch)

    def test_long_line_spans_blocks(self, monkeypatch):
        # At n = 16 a pass's block holds 4 * 8 = 32 rows and the line 489
        # points (uniform density: one pass, no stationary points): every
        # point is priced once, in full blocks but the last, moving column 0
        # only.
        game = GameSpec(16, Lime(epsilon=1e-3))
        profile = tuple(np.random.default_rng(16).random(16).tolist())
        blocks = []
        payoff_rows = equilibrium._payoff_rows

        def recording(game, rows):
            blocks.append(rows.copy())
            return payoff_rows(game, rows)

        monkeypatch.setattr(equilibrium, "_payoff_rows", recording)
        got = _lines_max(game, profile, [0])[0]
        monkeypatch.setattr(equilibrium, "_price_streams", _scalar_price_streams)
        assert repr(got) == repr(_lines_max(game, profile, [0])[0])
        sizes = [len(rows) for rows in blocks]
        cap = equilibrium._STREAM_BLOCKS * _block_rows(game)
        assert cap == 32 and len(blocks) > 2
        assert sizes[:-1] == [cap] * (len(sizes) - 1)
        ys = [y for rows in blocks for y in rows[:, 0].tolist()]
        assert len(ys) == len(set(ys)) == got[3] > 400
        assert all((rows[:, 1:] == profile[1:]).all() for rows in blocks)

    def test_exhaustive_check_is_one_row_stream(self, monkeypatch):
        # Uniform density: no stationary points, so every player's kinks and
        # interior points go out as one stream of full blocks, mixing
        # players, and the stream takes no more calls than its rows need.
        game = GameSpec(6, Lime())
        cap = equilibrium._STREAM_BLOCKS * _block_rows(game)
        payoff_rows = equilibrium._payoff_rows
        rng = np.random.default_rng(6)
        for profile in [optimal_locations(6), *(tuple(rng.random(6).tolist()) for _ in range(4))]:
            blocks = []

            def recording(game, rows):
                blocks.append(rows.copy())
                return payoff_rows(game, rows)

            monkeypatch.setattr(equilibrium, "_payoff_rows", recording)
            report = is_pne(game, profile)
            monkeypatch.setattr(equilibrium, "_payoff_rows", payoff_rows)
            rows = sum(len(block) for block in blocks)
            assert rows <= report.candidate_count
            assert len(blocks) <= math.ceil(rows / cap), (profile, len(blocks), rows)
            assert max(len(block) for block in blocks) <= cap
            moved = [set(np.flatnonzero((block != profile).any(axis=0)).tolist()) for block in blocks]
            assert set().union(*moved) == set(range(6)) and max(map(len, moved)) > 1
            assert repr(report) == _scalar_report(game, profile, monkeypatch)

    def test_lime_six_pass_takes_two_kernel_calls(self, monkeypatch):
        # A uniform lime n = 6 check of a profile off the equilibrium prices
        # about 400 rows in one pass: two kernel calls, not one per block
        # of the random phase (seven).
        game = GameSpec(6, Lime())
        profile = (1 / 12, 0.3, 5 / 12, 0.55, 0.75, 0.97)
        calls = []
        payoff_rows = equilibrium._payoff_rows

        def counting(game, rows):
            calls.append(len(rows))
            return payoff_rows(game, rows)

        monkeypatch.setattr(equilibrium, "_payoff_rows", counting)
        report = is_pne(game, profile)
        assert not report.is_pne and sum(calls) > 6 * _block_rows(game)
        assert len(calls) <= 2, calls
        monkeypatch.setattr(equilibrium, "_payoff_rows", payoff_rows)
        assert repr(report) == _scalar_report(game, profile, monkeypatch)

    @pytest.mark.parametrize(
        "profile, want",
        [
            ((0.1, 0.3, 0.6, 0.9), "PneReport(is_pne=False, worst_gain=0.26231249999999995, witness=(3, 0.6249999), "
             "candidate_count=194, gain_tol=1e-09)"),
            (optimal_locations(4), "PneReport(is_pne=True, worst_gain=0.0, witness=None, candidate_count=96, "
             "gain_tol=1e-09)"),
        ],
        ids=["refuted", "equilibrium"],
    )
    def test_uniform_check_skips_the_empty_second_pass(self, profile, want, monkeypatch):
        # A uniform-density line has no stationary points, so the second
        # pass holds no deviation and is not priced at all.
        calls = []
        price_rows = equilibrium._price_rows

        def counting(kernel, game, rows, *rest):
            calls.append(len(rows))
            return price_rows(kernel, game, rows, *rest)

        monkeypatch.setattr(equilibrium, "_price_rows", counting)
        assert repr(is_pne(GameSpec(4, Lime()), profile)) == want
        assert len(calls) == 1 and calls[0] > 0, calls


class TestEnumeration:
    def test_lime_two_player_grid(self):
        game = GameSpec(2, Lime(epsilon=1e-3))
        got = pne_enumerate(game, 1 / 64)
        assert got == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.75)]

    def test_nime_three_players_coarse_grid_empty(self):
        assert pne_enumerate(GameSpec(3, Nime()), 1 / 20) == []

    def test_clime_three_players_coarse_grid_empty(self):
        game = GameSpec(3, Clime(lam=1 / 12, epsilon=1e-3))
        assert pne_enumerate(game, 1 / 24) == []

    def test_sharding_unions_to_full(self):
        game = GameSpec(2, Lime(epsilon=1e-3))
        total = math.comb(64 + 2, 2)
        parts = []
        for a in range(0, total, 541):
            parts.extend(pne_enumerate(game, 1 / 64, shard=(a, min(a + 541, total))))
        assert sorted(parts) == pne_enumerate(game, 1 / 64)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shard_seek_matches_islice(self, n):
        grid_n = 12
        full = list(combinations_with_replacement(range(grid_n + 1), n))
        rng = np.random.default_rng(n)
        for _ in range(30):
            start, stop = sorted(int(v) for v in rng.choice(len(full) + 1, 2, replace=False))
            size = int(rng.integers(1, 2 * (stop - start) + 1))
            assert _grid_rows(grid_n, n, start, stop, size) == full[start:stop], (start, stop, size)
        cuts = [0, *sorted(int(v) for v in rng.choice(range(1, len(full)), 6, replace=False)), len(full)]
        assert [c for a, b in zip(cuts, cuts[1:]) for c in _grid_rows(grid_n, n, a, b, 50)] == full

    @pytest.mark.parametrize("n, grid_n", [(2, 1), (2, 64), (3, 40), (4, 5), (5, 3)])
    def test_grid_walker_matches_itertools(self, n, grid_n):
        # The first and the last profile, and every one-profile shard of the
        # first and last 40, come out alone and right.
        total = math.comb(grid_n + n, n)
        want = list(combinations_with_replacement(range(grid_n + 1), n))
        assert len(want) == total
        assert _grid_rows(grid_n, n, 0, 1, 1) == [(0,) * n]
        assert _grid_rows(grid_n, n, total - 1, total, 1) == [(grid_n,) * n]
        for start in [*range(min(40, total)), *range(max(0, total - 40), total)]:
            assert _grid_rows(grid_n, n, start, start + 1, 7) == want[start : start + 1], start
        # The whole grid in blocks of one row, a prime count and all at once.
        for size in (1, 13, total):
            blocks = list(_grid_blocks(grid_n, n, 0, total, size))
            assert all(b.dtype == np.int64 and b.shape[1] == n for b in blocks)
            assert [len(b) for b in blocks] == [min(size, total - a) for a in range(0, total, size)]
            assert [tuple(r) for b in blocks for r in b.tolist()] == want

    def test_grid_runs_cross_several_prefixes(self):
        # At n = 4 on the 1/5 grid the run after (0, 0, 4, 5) ... (0, 0, 5, 5)
        # raises the second coordinate, and the one after (0, 5, 5, 5) the
        # first: a block spanning both, starting and ending inside runs.
        want = list(combinations_with_replacement(range(6), 4))
        start = want.index((0, 0, 4, 4)) + 1
        stop = want.index((1, 1, 1, 3))
        assert len({w[:3] for w in want[start:stop]}) > 10
        for size in (1, 2, 5, stop - start):
            assert _grid_rows(5, 4, start, stop, size) == want[start:stop], size

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            pne_enumerate(GameSpec(6, Nime()), 1e-4)
        # The message used to hold every digit of the grid's profile count.
        with pytest.raises(ValueError) as error:
            pne_enumerate(GameSpec(2, Nime()), 1e-300)
        assert len(str(error.value)) < 200

    def test_grid_step_must_divide(self):
        with pytest.raises(ValueError):
            pne_enumerate(GameSpec(2, Nime()), 0.3)

    @pytest.mark.parametrize("step", [5e-324, 1e-310])
    def test_subnormal_grid_step_is_a_value_error(self, step):
        # Its reciprocal overflows to inf, which round() turned into an
        # OverflowError.
        with pytest.raises(ValueError, match="grid_step"):
            pne_enumerate(GameSpec(2, Nime()), step)

    @pytest.mark.parametrize("step", [0.0, -0.25, math.inf, math.nan])
    def test_grid_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError):
            pne_enumerate(GameSpec(2, Nime()), step)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_gain_tol_must_be_positive_and_finite(self, tol):
        # A NaN tolerance used to pass all 15 grid profiles and to refute a
        # profile without a witness.
        game = GameSpec(2, Nime())
        with pytest.raises(ValueError):
            pne_enumerate(game, 0.25, gain_tol=tol)
        for exhaustive in (True, False):
            with pytest.raises(ValueError):
                is_pne(game, (0.5, 0.5), gain_tol=tol, exhaustive=exhaustive)
        with pytest.raises(ValueError):
            better_response_dynamics(game, (0.1, 0.9), max_steps=5, gain_tol=tol)

    def test_threads_must_be_a_positive_integer(self):
        with pytest.raises(ValueError):
            pne_enumerate(GameSpec(2, Nime()), 0.25, threads=-4)

    @pytest.mark.parametrize("shard", [(10, 5), (5, 5), (-1, 5), (0, 2146), (2146, 2147)])
    def test_invalid_shard_rejected(self, shard):
        # The 1/64 two-player grid holds comb(66, 2) = 2145 sorted profiles.
        with pytest.raises(ValueError):
            pne_enumerate(GameSpec(2, Nime()), 1 / 64, shard=shard)

    def test_last_profile_shard(self):
        assert pne_enumerate(GameSpec(2, Nime()), 1 / 64, shard=(2144, 2145)) == []

    def test_unique_equilibria_on_grids_containing_them(self):
        # The characterized equilibrium sets are singletons; the grids below
        # contain the profiles exactly, so enumeration must return them alone.
        cases = [
            (GameSpec(3, Lime(epsilon=1e-3)), 1 / 60, optimal_locations(3)),
            (GameSpec(3, Glime(epsilon=1e-3)), 1 / 60, optimal_locations(3)),
            (GameSpec(4, Clime(lam=1 / 8, epsilon=1e-3)), 1 / 24, optimal_locations(4)),
            (GameSpec(5, Clime(lam=1 / 10, epsilon=1e-3)), 1 / 10, optimal_locations(5)),
        ]
        for game, step, want in cases:
            assert pne_enumerate(game, step) == [want], game.mediator

    def test_no_facility_inside_interval_at_any_passing_profile(self):
        # Certified profiles never place a facility strictly inside a
        # protected interval.
        game = GameSpec(3, Lime(epsilon=1e-3))
        piis = game.piis
        for profile in pne_enumerate(game, 1 / 40):
            for s in profile:
                assert not any(lo < s < hi for lo, hi in piis)

    def test_grid_cost_minimizer_matches_reference_locations(self):
        # Among sorted grid profiles, the straight nearest-assignment cost is
        # minimized at the reference locations (grids chosen to contain them).
        from itertools import combinations_with_replacement

        for n, grid in ((2, 8), (3, 6)):
            game = GameSpec(n, Nime())
            best = min(
                combinations_with_replacement((k / grid for k in range(grid + 1)), n),
                key=lambda p: social_cost(game, p),
            )
            assert best == optimal_locations(n)


def _reference_probes(game, locs, offsets=True):
    """The ``(player, deviation)`` list ``_refute_fast`` probes, written out:
    every player's opponent points, point k of each player in turn, from the
    last player to the first, before point k + 1 of any, then each static
    point for every player in turn, from the first; without ``offsets``, the
    macroscopic candidates better-response dynamics moves to.  A player
    takes the opponents one index away, then two, and so on, the higher index
    first, and approaches each from its own side first: a lower opponent z
    from above (z + DELTA, then z - DELTA), a higher one from below."""
    per_player = []
    for player in range(game.n - 1, -1, -1):
        by_distance = [j for d in range(1, game.n) for j in (player + d, player - d)]
        opponents = [j for j in by_distance if 0 <= j < game.n]
        pts = []
        for j in opponents:
            z = locs[j]
            if not offsets:
                pts += [z]
            elif j < player:
                pts += [z + DELTA, z - DELTA, z]
            else:
                pts += [z - DELTA, z + DELTA, z]
        for lo, hi in game.piis:
            for e in (lo, hi):
                pts += [2.0 * e - locs[j] for j in opponents]
        per_player.append([(player, min(max(p, 0.0), 1.0)) for p in pts])
    out = [entry for k in range(len(per_player[0])) for entry in (pts[k] for pts in per_player)]
    static = []
    for lo, hi in game.piis:
        for e in (lo, hi):
            static += [e, e - DELTA, e + DELTA] if offsets else [e]
    static += quantile_locations(game.n, game.distribution)
    if isinstance(game.mediator, Dictator):
        static += game.mediator.targets
    static += [0.0, 1.0]
    out += [(player, min(max(p, 0.0), 1.0)) for p in static for player in range(game.n)]
    return out


def _grid_rows(top, n, start, stop, size):
    """The grid walker's profiles ``start`` to ``stop - 1`` as tuples of
    Python ints, walked in blocks of ``size`` rows."""
    return [tuple(row) for block in _grid_blocks(top, n, start, stop, size) for row in block.tolist()]


def _scalar_scan(game, grid_n, start, stop, gain_tol=1e-9):
    """Grid profiles of a shard that ``_refute_fast`` does not refute, and
    those of them the single-profile early-exit check certifies, which sends
    them on to the exact check."""
    survivors = []
    for combo in _grid_rows(grid_n, game.n, start, stop, 1):
        locs = tuple(k / grid_n for k in combo)
        if _refute_fast(game, locs, gain_tol)[1] is None:
            survivors.append(locs)
    return survivors, [p for p in survivors if is_pne(game, p, gain_tol, exhaustive=False).is_pne]


def _plan_arrays(game):
    return [np.array(v) for v in zip(*_probe_plan(game))]


def _same_floats(got, want):
    """Equal lists of ``(player, deviation)``, sign of zero included."""
    assert len(got) == len(want)
    for (pa, ya), (pb, yb) in zip(got, want):
        assert pa == pb and ya == yb and np.signbit(ya) == np.signbit(yb), (ya, yb)


class TestProbeWaves:
    @pytest.mark.parametrize("density", sorted(DENSITIES))
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_plan_reproduces_candidate_list(self, n, density):
        rng = np.random.default_rng([n, len(density), 13])
        for name, mediator in _mediators(n).items():
            game = GameSpec(n, mediator, DENSITIES[density])
            for locs in _profiles(rng, game, 12):
                got = [(e[0], _probe(locs, e)) for e in _probe_plan(game)]
                _same_floats(got, _reference_probes(game, locs))

    @pytest.mark.parametrize("density", sorted(DENSITIES))
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_one_sided_plan_reproduces_macroscopic_candidates(self, n, density):
        # Read with side=0.0, each one-sided entry repeats its anchor, and
        # deduplication leaves the candidates dynamics moves to.
        rng = np.random.default_rng([n, len(density), 17])
        for mediator in _mediators(n).values():
            game = GameSpec(n, mediator, DENSITIES[density])
            plan = list(_probe_plan(game, side=0.0))
            for locs in _profiles(rng, game, 6):
                want = _reference_probes(game, locs, offsets=False)
                for player in range(n):
                    got = [(player, y) for y in _candidates(game, locs, player, plan)]
                    _same_floats(got, list(dict.fromkeys(w for w in want if w[0] == player)))

    @pytest.mark.parametrize(
        "game, grid_n, shards",
        [
            (GameSpec(3, Clime(lam=1 / 12, epsilon=1e-3)), 120, 12),
            (GameSpec(3, Clime(lam=1 / 10, epsilon=1e-3)), 120, 12),
            (GameSpec(3, Glime(epsilon=1e-3), ZIGZAG), 24, 4),
            (GameSpec(2, Lime(epsilon=1e-3)), 64, 3),
        ],
        ids=["clime3-1/12", "clime3-1/10", "glime3-zigzag", "lime2"],
    )
    def test_wave_chunks_match_scalar_scan(self, game, grid_n, shards):
        total = math.comb(grid_n + game.n, game.n)
        rng = np.random.default_rng(grid_n)
        for _ in range(shards):
            start = int(rng.integers(total - 400))
            stop = start + int(rng.integers(1, 401))
            got, waves, rows, priced, checked, _ = _enumerate_chunk((game, grid_n, start, stop, 1e-9))
            # The waves leave exactly the scalar refuter's survivors, and the
            # exact check keeps exactly the early exit's equilibria of them.
            survivors, certified = _scalar_scan(game, grid_n, start, stop)
            assert checked == len(survivors), (start, stop)
            assert got == certified, (start, stop)
            assert rows >= 2 * (stop - start) and waves >= 1
            assert stop - start <= priced <= rows

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_opponent_entries_leave_the_static_tail_unbuilt(self, n, monkeypatch):
        # The opponent entries come first, round-robin over the players from
        # the last to the first; an early exit among them never works out the
        # static points.
        game = GameSpec(n, Lime(epsilon=1e-3))

        def unbuilt(*args):
            raise RuntimeError("static tail built")

        monkeypatch.setattr(equilibrium, "quantile_locations", unbuilt)
        count = n * (n - 1) * (3 + 2 * len(game.piis))
        plan = _probe_plan(game)
        head = list(islice(plan, count))
        assert [e[0] for e in head] == [n - 1 - k % n for k in range(count)]
        assert all(e[2] != 0.0 for e in head)
        with pytest.raises(RuntimeError, match="static tail built"):
            next(plan)

    def test_survivors_take_every_probe(self):
        # The center pair survives and walks the rest of the plan in
        # doubling waves; the other profile falls to its first probe.
        game = GameSpec(2, Nime())
        plan = _plan_arrays(game)
        locs = np.array([(0.5, 0.5), (0.25, 0.75)])
        survivors, waves, rows, priced = _refute_rows(game, locs, 1e-9, plan)
        assert survivors.tolist() == [0]
        assert rows == 2 + 2 + (len(plan[0]) - 1)
        assert priced <= rows
        assert waves > 2

    def test_base_payoffs_ride_with_the_first_wave(self, monkeypatch):
        # One _payoff_rows call per wave: the base rows go out with the
        # first wave, so the first call holds the block and the first wave's
        # distinct rows, one per run of the last coordinate.
        calls = []

        def counting(game, rows):
            calls.append(len(rows))
            return _payoff_rows(game, rows)

        monkeypatch.setattr(equilibrium, "_payoff_rows", counting)
        game = GameSpec(3, Clime(lam=1 / 12, epsilon=1e-3))
        block = _block_rows(game)
        locs = np.array(_grid_rows(120, 3, 100_000, 100_000 + block, block)) / 120
        survivors, waves, rows, priced = _refute_rows(game, locs, 1e-9, _plan_arrays(game))
        assert len(calls) == waves and sum(calls) == priced < rows
        runs = len({tuple(p[:2]) for p in locs.tolist()})
        assert 1 < runs < block
        assert calls[0] == block + runs and max(calls[1:]) <= block
        want = [k for k, p in enumerate(locs.tolist()) if _refute_fast(game, tuple(p), 1e-9)[1] is None]
        assert survivors.tolist() == want
        # A shard of several blocks makes one call per wave in total.
        calls.clear()
        _, waves, rows, priced, _, _ = _enumerate_chunk((game, 120, 5_000, 5_000 + 3 * block + 7, 1e-9))
        assert len(calls) == waves and sum(calls) == priced < rows

    def test_first_wave_prices_one_row_per_run(self, monkeypatch):
        # On sorted grid rows the plan's first probe moves the last player
        # just right of its neighbour, a row that does not read the last
        # coordinate: one row per run of it, priced after the base rows.
        calls = []

        def counting(game, rows):
            calls.append(rows.copy())
            return _payoff_rows(game, rows)

        monkeypatch.setattr(equilibrium, "_payoff_rows", counting)
        game = GameSpec(3, Clime(lam=1 / 12, epsilon=1e-3))
        locs = np.array(_grid_rows(120, 3, 7_000, 7_300, 300)) / 120
        _refute_rows(game, locs, 1e-9, _plan_arrays(game))
        prefixes = list(dict.fromkeys(tuple(p[:2]) for p in locs.tolist()))
        assert len(prefixes) > 2
        first = calls[0]
        assert first[: len(locs)].tolist() == locs.tolist()
        assert first[len(locs) :].tolist() == [[a, b, min(b + DELTA, 1.0)] for a, b in prefixes]

    def test_runs_of_equal_rows_are_priced_once(self, monkeypatch):
        calls = []

        def counting(game, rows):
            calls.append(rows.copy())
            return _payoff_rows(game, rows)

        monkeypatch.setattr(equilibrium, "_payoff_rows", counting)
        game = GameSpec(2, Lime(epsilon=1e-3))
        rows = np.array(
            [(0.2, 0.7), (0.2, 0.7), (0.2, 0.7), (0.3, 0.7), (0.2, 0.7), (-0.0, 0.5), (0.0, 0.5), (0.0, 0.5)]
        )
        value, priced = _price_rows(equilibrium._payoff_rows, game, rows)
        want = [(0.2, 0.7), (0.3, 0.7), (0.2, 0.7), (-0.0, 0.5), (0.0, 0.5)]
        assert len(calls) == 1 and priced == len(want)
        assert [tuple(r) for r in calls[0].tolist()] == want
        assert np.signbit(calls[0][:, 0]).tolist() == [False, False, False, True, False]
        assert value.view(np.int64).tolist() == _payoff_rows(game, rows).view(np.int64).tolist()

    @pytest.mark.parametrize("n", [2, 3])
    def test_repeated_rows_keep_the_scalar_verdicts(self, n):
        # Repeats next to each other and apart, unsorted profiles, and rows
        # that differ only in the sign of a zero.
        rng = np.random.default_rng(n)
        for name, mediator in _mediators(n).items():
            game = GameSpec(n, mediator)
            profiles = [tuple(p) for p in _profiles(rng, game, 6)]
            profiles += [optimal_locations(n)[::-1], (0.0,) * n, (-0.0,) * n, (-0.0, *optimal_locations(n)[1:])]
            profiles += [(0.0, *optimal_locations(n)[1:]), profiles[0], profiles[0], profiles[3], profiles[1]]
            locs = np.array(profiles, dtype=float)
            survivors, _, rows, priced = _refute_rows(game, locs, 1e-9, _plan_arrays(game))
            want = [k for k, p in enumerate(profiles) if _refute_fast(game, p, 1e-9)[1] is None]
            assert survivors.tolist() == want, name
            assert priced < rows

    def test_sharding_one_game_builds_its_plan_once(self, monkeypatch):
        builds = []

        def counting(game, *args):
            builds.append(game)
            return _probe_plan(game, *args)

        monkeypatch.setattr(equilibrium, "_probe_plan", counting)
        game = GameSpec(3, Clime(lam=1 / 12, epsilon=1e-3))
        assert game.plan_arrays is None and not builds
        total = math.comb(24 + 3, 3)
        parts = []
        for a in range(0, total, 97):
            parts += pne_enumerate(game, 1 / 24, shard=(a, min(a + 97, total)))
        assert builds == [game] and len(builds) == 1
        assert sorted(parts) == pne_enumerate(game, 1 / 24) == []
        assert all(not a.flags.writeable for a in game.plan_arrays)
        for want, got in zip(_plan_arrays(game), game.plan_arrays):
            assert want.dtype == got.dtype and want.tolist() == got.tolist()
        # The kept arrays change neither equality nor hashing, and an equal
        # but distinct game builds its own.
        twin = GameSpec(3, Clime(lam=1 / 12, epsilon=1e-3))
        assert twin == game and hash(twin) == hash(game) and twin.plan_arrays is None
        pne_enumerate(twin, 1 / 24, shard=(0, 10))
        assert builds == [game, twin]

    @pytest.mark.parametrize(
        "build, grid_n",
        [
            (lambda: GameSpec(2, Lime(epsilon=1e-3)), 64),
            (lambda: GameSpec(2, Nime()), 64),
            (lambda: GameSpec(2, Clime(lam=1 / 8, epsilon=1e-3)), 80),
        ],
        ids=["lime2", "nime2", "clime2-1/8"],
    )
    def test_plan_survivors_go_through_the_exact_check(self, build, grid_n, monkeypatch, caplog):
        # Cut to its first entry, the plan leaves 33 to 615 profiles that
        # are mostly no equilibria; the exact check must still leave only the
        # criterion lists.  Each game is built fresh, so no kept plan arrays
        # hide the cut.
        want = sorted({tuple(sorted(p)) for p in known_pne(build())})
        probe_plan = equilibrium._probe_plan
        monkeypatch.setattr(equilibrium, "_probe_plan", lambda game, *args: islice(probe_plan(game, *args), 1))
        for threads in (1, 2):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="hotelling_mediators"):
                assert pne_enumerate(build(), 1 / grid_n, threads=threads) == want
            records = [r for r in caplog.records if r.name == "hotelling_mediators"]
            assert sum(r.args[-2] for r in records) > 10 * len(want)
        game = build()
        profiles = [tuple(k / grid_n for k in combo) for combo in _grid_rows(grid_n, 2, 0, math.comb(grid_n + 2, 2), 512)]
        survivors = [p for p in profiles if _refute_fast(game, p, 1e-9)[1] is None]
        for profile in survivors[:: max(1, len(survivors) // 8)] + want:
            assert is_pne(game, profile, exhaustive=False).is_pne == is_pne(game, profile).is_pne == (profile in want)

    def test_pwl_survivor_matches_scalar_scan(self):
        # Under the zigzag the dictated targets still certify, and the 1/12
        # grid holds them.
        game = GameSpec(3, Dictator(), ZIGZAG)
        total = math.comb(12 + 3, 3)
        got, _, _, _, checked, _ = _enumerate_chunk((game, 12, 0, total, 1e-9))
        survivors, certified = _scalar_scan(game, 12, 0, total)
        # The static tail refutes everything else, so only the targets reach
        # the exact check.
        assert checked == 1 and survivors == [optimal_locations(3)]
        assert got == certified == [optimal_locations(3)]

    @settings(max_examples=25)
    @given(st.data())
    def test_wave_verdicts_equal_scalar_verdicts(self, data):
        n = data.draw(st.integers(2, 5))
        mediator = data.draw(st.sampled_from(sorted(_mediators(n).items())))[1]
        dist = DENSITIES[data.draw(st.sampled_from(sorted(DENSITIES)))]
        game = GameSpec(n, mediator, dist)
        anchors = [*optimal_locations(n), *quantile_locations(n, dist), *(e for pii in game.piis for e in pii), 0.0, 1.0]
        coord = st.one_of(st.floats(0.0, 1.0), st.sampled_from(anchors))
        profiles = data.draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=6))
        profiles += known_pne(game) or []
        gain_tol = data.draw(st.sampled_from([1e-9, 1e-3, 0.05]))
        locs = np.array(profiles, dtype=float)
        survivors, _, _, _ = _refute_rows(game, locs, gain_tol, _plan_arrays(game))
        want = [k for k, p in enumerate(profiles) if _refute_fast(game, tuple(p), gain_tol)[1] is None]
        assert survivors.tolist() == want
        assert np.all(np.abs(_payoff_rows(game, locs).sum(axis=1) - 1.0) <= 1e-12)

    def test_enumeration_logs_one_record_per_chunk(self, caplog):
        game = GameSpec(2, Lime(epsilon=1e-3))
        with caplog.at_level(logging.INFO, logger="hotelling_mediators"):
            pne_enumerate(game, 1 / 64, shard=(100, 1100))
        assert not caplog.records
        for threads in (1, 2):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="hotelling_mediators"):
                found = pne_enumerate(game, 1 / 64, shard=(100, 1100), threads=threads)
            records = [r for r in caplog.records if r.name == "hotelling_mediators"]
            assert all(r.levelno == logging.DEBUG for r in records)
            assert len(records) == (1 if threads == 1 else math.ceil(1000 / math.ceil(1000 / 16)))
            shards = [r.args[:2] for r in records]
            assert shards[0][0] == 100 and shards[-1][1] == 1100
            assert all(a[1] == b[0] for a, b in zip(shards, shards[1:]))
            assert sum(r.args[2] for r in records) == 1000
            assert sum(r.args[-1] for r in records) == len(found)
            assert all(r.args[5] >= 2 * r.args[2] for r in records)
            # Rows judged, then rows priced: every profile's own row at least.
            assert all(r.args[2] <= r.args[6] <= r.args[5] for r in records)
            # Every equilibrium found was checked exactly.
            assert all(r.args[-1] <= r.args[-2] for r in records)


class TestKnownPne:
    def test_lime_five_players(self):
        assert known_pne(GameSpec(5, Lime(epsilon=1e-3))) == [optimal_locations(5)]

    def test_lime_two_player_square(self):
        got = known_pne(GameSpec(2, Lime(epsilon=1e-3)))
        assert sorted(got) == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]

    def test_glime_ramp_quantiles(self):
        got = known_pne(GameSpec(3, Glime(epsilon=1e-3), RAMP))
        want = tuple(math.sqrt(x) for x in (1 / 6, 0.5, 5 / 6))
        assert len(got) == 1
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got[0], want))

    def test_clime_quarter_recovers_two_player_square(self):
        got = known_pne(GameSpec(2, Clime(lam=0.25, epsilon=1e-3)))
        assert sorted(got) == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]

    def test_nime_two_player(self):
        assert known_pne(GameSpec(2, Nime())) == [(0.5, 0.5)]

    def test_uncharacterized_absent(self):
        assert known_pne(GameSpec(3, Nime())) is None
        assert known_pne(GameSpec(2, Glime(epsilon=1e-3))) is None
        assert known_pne(GameSpec(4, Clime(lam=1 / 8, epsilon=1e-3))) is None

    def test_uniform_only_answers_absent_under_other_densities(self):
        # The uniform-density equilibria of these rules fail certification
        # under the ramp, so no characterization is claimed there.
        cases = [
            (GameSpec(2, Nime(), RAMP), [(0.5, 0.5)]),
            (GameSpec(5, Lime(epsilon=1e-3), RAMP), [optimal_locations(5)]),
            (
                GameSpec(2, Clime(lam=1 / 8, epsilon=1e-3), RAMP),
                [(a, b) for a in (0.375, 0.625) for b in (0.375, 0.625)],
            ),
        ]
        for game, uniform_answer in cases:
            assert known_pne(game) is None, game.mediator
            for profile in uniform_answer:
                assert not is_pne(game, profile).is_pne, (game.mediator, profile)

    def test_overridden_targets_are_the_dictated_equilibrium(self):
        game = GameSpec(2, Dictator(targets=(0.3, 0.6)))
        assert known_pne(game) == [(0.3, 0.6)]
        assert is_pne(game, (0.3, 0.6)).is_pne
        assert not is_pne(game, (0.25, 0.75)).is_pne

    def test_glime_tent_density_quantiles_certify(self):
        tent = PiecewiseLinearDensity((0.0, 0.5, 1.0), (0.0, 2.0, 0.0))
        game = GameSpec(3, Glime(epsilon=1e-3), tent)
        locs = quantile_locations(3, tent)
        shares = payoff(game, locs)
        assert all(abs(x - 1 / 3) <= 1e-9 for x in shares)
        assert is_pne(game, locs).is_pne

    @settings(max_examples=150)
    @given(RANDOM_DENSITIES, st.integers(3, 5))
    def test_glime_quantiles_are_an_equilibrium_under_any_density(self, density, n):
        # The quantile rule places its intervals at the density's odd
        # quantiles, and its claim is that the quantile profile is an
        # equilibrium under every density.
        game = GameSpec(n, Glime(epsilon=1e-3), density)
        (locs,) = known_pne(game)
        assert locs == quantile_locations(n, density)
        report = is_pne(game, locs)
        assert report.is_pne, (density, n, report)

    def test_every_known_profile_certifies(self):
        games = [
            GameSpec(2, Nime()),
            GameSpec(2, Lime(epsilon=1e-3)),
            GameSpec(4, Lime(epsilon=1e-3)),
            GameSpec(3, Dictator()),
            GameSpec(3, Glime(epsilon=1e-3)),
            GameSpec(2, Clime(lam=1 / 8, epsilon=1e-3)),
        ]
        for game in games:
            for profile in known_pne(game):
                assert is_pne(game, profile).is_pne, (game.mediator, profile)


class TestDynamics:
    def test_dictated_targets_attract(self):
        game = GameSpec(3, Dictator())
        trace = better_response_dynamics(game, (0.2, 0.5, 0.9), max_steps=20, seed=0)
        assert trace.converged
        assert trace.states[-1] == optimal_locations(3)

    def test_unmediated_pair_walks_to_center(self):
        game = GameSpec(2, Nime())
        trace = better_response_dynamics(game, (0.1, 0.9), max_steps=300, seed=1)
        assert trace.converged
        grid_step = 0.01
        assert all(abs(s - 0.5) <= grid_step + 1e-12 for s in trace.states[-1])

    def test_start_at_equilibrium_is_stationary(self):
        game = GameSpec(4, Lime(epsilon=1e-3))
        trace = better_response_dynamics(game, optimal_locations(4), max_steps=5, seed=2)
        assert trace.converged and trace.steps == 0

    def test_stable_state_reached_on_the_last_step_converges(self):
        game = GameSpec(3, Dictator())
        full = better_response_dynamics(game, (0.2, 0.5, 0.9), max_steps=20, seed=0)
        assert full.converged and full.steps >= 2
        exact = better_response_dynamics(game, (0.2, 0.5, 0.9), max_steps=full.steps, seed=0)
        assert exact == full
        short = better_response_dynamics(game, (0.2, 0.5, 0.9), max_steps=full.steps - 1, seed=0)
        assert not short.converged and short.states == full.states[:-1]

    # Traces captured from the candidate builders the probe plan replaced.
    @pytest.mark.parametrize(
        "game, start, seed, max_steps, converged, states",
        [
            (
                GameSpec(4, Lime(epsilon=1e-3)), (0.05, 0.3, 0.6, 0.95), 4, 30, True,
                ((0.05, 0.3, 0.6, 0.95), (0.05, 0.3, 0.375, 0.95), (0.05, 0.3, 0.375, 0.625),
                 (0.05, 0.875, 0.375, 0.625), (0.125, 0.875, 0.375, 0.625)),
            ),
            (
                GameSpec(3, Glime(epsilon=1e-3), ZIGZAG), (0.1, 0.45, 0.9), 5, 14, False,
                ((0.1, 0.45, 0.9), (0.1, 0.45, 0.5), (0.1, 0.9, 0.5), (0.1, 0.9, 0.11), (0.89, 0.9, 0.11),
                 (0.89, 0.9, 0.88), (0.87, 0.9, 0.88), (0.87, 0.9, 0.86), (0.87, 0.85, 0.86), (0.84, 0.85, 0.86),
                 (0.84, 0.85, 0.8300000000000001), (0.8200000000000001, 0.85, 0.8300000000000001),
                 (0.8200000000000001, 0.8104235651970522, 0.8300000000000001),
                 (0.5, 0.8104235651970522, 0.8300000000000001), (0.5, 0.8104235651970522, 0.0)),
            ),
            (
                GameSpec(3, Clime(lam=1 / 10, epsilon=1e-3)), (0.2, 0.5, 0.9), 6, 8, False,
                ((0.2, 0.5, 0.9), (0.49, 0.5, 0.9), (0.49, 0.5, 0.51), (0.49, 0.48, 0.51), (0.49, 0.48, 0.5),
                 (0.51, 0.48, 0.5), (0.51, 0.48, 0.52), (0.47000000000000003, 0.48, 0.52),
                 (0.47000000000000003, 0.48, 0.49)),
            ),
        ],
        ids=["lime4", "glime3-zigzag", "clime3-1/10"],
    )
    def test_pinned_trace(self, game, start, seed, max_steps, converged, states):
        trace = better_response_dynamics(game, start, max_steps=max_steps, seed=seed)
        assert trace == equilibrium.DynamicsTrace(states=states, converged=converged, steps=len(states) - 1)

    def test_each_state_is_one_row_stream(self, monkeypatch):
        # Every player's candidates at a state go out as one _price_streams
        # call, and the state's own payoffs as one _payoff_locs call.
        calls = {"_price_streams": [], "_payoff_locs": []}
        for name, seen in calls.items():

            def counting(game, locs, *rest, seen=seen, real=getattr(equilibrium, name)):
                seen.append((locs, [i for i, _ in rest[0]] if rest else None))
                return real(game, locs, *rest)

            monkeypatch.setattr(equilibrium, name, counting)
        game = GameSpec(4, Lime(epsilon=1e-3))
        trace = better_response_dynamics(game, (0.05, 0.3, 0.6, 0.95), max_steps=30, seed=4)
        assert trace.steps == 4
        for seen in calls.values():
            assert [locs for locs, _ in seen] == list(trace.states)
        assert all(players == [0, 1, 2, 3] for _, players in calls["_price_streams"])

    @pytest.mark.parametrize("max_steps", [0, -2, math.nan, 2.5, True, "3"])
    def test_max_steps_must_be_a_positive_integer(self, max_steps):
        # NaN passed the old ``< 1`` check and never stopped a run; 2.5 and
        # True were accepted.
        with pytest.raises(ValueError):
            better_response_dynamics(GameSpec(3, Nime()), (0.05, 0.5, 0.9), max_steps=max_steps)

    def test_moves_change_one_coordinate_and_improve(self):
        game = GameSpec(3, Nime())
        trace = better_response_dynamics(game, (0.05, 0.5, 0.9), max_steps=40, seed=3)
        for a, b in zip(trace.states, trace.states[1:]):
            changed = [i for i in range(3) if a[i] != b[i]]
            assert len(changed) == 1
            mover = changed[0]
            assert payoff(game, b)[mover] > payoff(game, a)[mover] + 1e-9


class TestNeutrality:
    def test_limited_intervention_rules_neutral(self):
        for game in (
            GameSpec(4, Lime(epsilon=1e-3)),
            GameSpec(3, Glime(epsilon=1e-3)),
            GameSpec(3, Clime(lam=1 / 8, epsilon=1e-3)),
            GameSpec(3, Nime()),
        ):
            neutral, witness = neutrality_check(game, trials=300, seed=0)
            assert neutral and witness is None

    @pytest.mark.parametrize("trials", [0, -1, 2.5, True, math.nan])
    def test_trials_must_be_a_positive_integer(self, trials):
        # 2.5 raised a bare TypeError from range; True ran one trial.
        with pytest.raises(ValueError):
            neutrality_check(GameSpec(2, Dictator()), trials)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, True, "1e-9"])
    def test_tol_must_be_a_finite_nonnegative_number(self, tol):
        # NaN and inf reported the dictator game as neutral; -1.0 reported
        # every game as non-neutral.
        with pytest.raises(ValueError, match="tol"):
            neutrality_check(GameSpec(2, Dictator()), 10, tol=tol)

    def test_dictated_targets_break_neutrality(self):
        neutral, witness = neutrality_check(GameSpec(2, Dictator()), trials=1000, seed=0)
        assert not neutral
        profile, i, j, pi_i, pj_swapped = witness
        assert abs(pi_i - pj_swapped) > 1e-9
