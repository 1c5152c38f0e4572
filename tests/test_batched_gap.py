"""The batched gap of ic_search's random phase against the scalar path.

``_gap_rows`` prices a block of profiles with one array computation; the
scalar ``_gap_locs`` stays the oracle.  Agreement is bitwise, sign of zero
included, so ic_search returns exactly what pricing one row at a time does.
"""

import numpy as np
import pytest

from hotelling_mediators import GameSpec, Lime, ic_search
from hotelling_mediators import metrics
from hotelling_mediators.metrics import _gap_locs, _gap_rows, _nime_twin

from test_policy_reference import DENSITIES, _mediators, _profiles

NS = (2, 3, 4, 5, 6, 7, 8, 12, 16, 32)


def _bitwise(a, b):
    return a == b and np.signbit(a) == np.signbit(b)


@pytest.mark.parametrize("density", sorted(DENSITIES))
@pytest.mark.parametrize("n", NS)
def test_rows_equal_scalar_gap(n, density):
    rng = np.random.default_rng([n, len(density), 3])
    for name, mediator in _mediators(n).items():
        game = GameSpec(n, mediator, DENSITIES[density])
        rows = np.array(_profiles(rng, game, 48 if n <= 8 else 12))
        got = _gap_rows(game, rows)
        twin = _nime_twin(game)
        for k in range(len(rows)):
            want = _gap_locs(game, twin, tuple(rows[k]))
            assert _bitwise(got[k], want), (name, tuple(rows[k]), got[k], want)


@pytest.mark.parametrize("density", sorted(DENSITIES))
def test_row_alone_equals_row_in_block(density):
    rng = np.random.default_rng(len(density))
    for n in (3, 8):
        for name, mediator in _mediators(n).items():
            game = GameSpec(n, mediator, DENSITIES[density])
            rows = np.array(_profiles(rng, game, 16))
            block = _gap_rows(game, rows)
            for k in range(len(rows)):
                assert _bitwise(_gap_rows(game, rows[k : k + 1])[0], block[k]), (name, k)


@pytest.mark.parametrize("kind", sorted(DENSITIES))
def test_abs_moment_array_equals_scalar(kind):
    dist = DENSITIES[kind]
    rng = np.random.default_rng(len(kind))
    pts = np.concatenate([rng.random((400, 3)), rng.integers(0, 9, (100, 3)) / 8])
    c, a, b = pts[:, 0], np.minimum(pts[:, 1], pts[:, 2]), np.maximum(pts[:, 1], pts[:, 2])
    got = dist.abs_moment_array(c, a, b)
    for k in range(len(pts)):
        assert _bitwise(got[k], dist.abs_moment(c[k], a[k], b[k])), (c[k], a[k], b[k])


def _scalar_gap_rows(game, rows):
    twin = _nime_twin(game)
    return np.array([_gap_locs(game, twin, tuple(row)) for row in rows])


@pytest.mark.parametrize("n", [3, 6])
def test_ic_search_equals_row_by_row_pricing(n, monkeypatch):
    for mediator in _mediators(n).values():
        game = GameSpec(n, mediator)
        got = ic_search(game, budget=300, seed=n, sweeps=2)
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_gap_rows", _scalar_gap_rows)
            want = ic_search(game, budget=300, seed=n, sweeps=2)
        assert got == want


def test_ic_search_threads_agree_above_one_chunk():
    game = GameSpec(3, Lime(epsilon=1e-2))
    one = ic_search(game, budget=4500, seed=5, threads=1, sweeps=2)
    two = ic_search(game, budget=4500, seed=5, threads=2, sweeps=2)
    assert one == two
