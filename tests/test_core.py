import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from double_oracle import (
    Box,
    DomainError,
    FiniteMixedStrategy,
    GameDefinition,
    IntervalUnion,
    InvalidStrategyError,
    ParameterError,
    Simplex,
    StrategyPoint,
    dirac,
    expected_utility,
    make_polynomial_game,
    merge_duplicates,
    point,
)


def bilinear_game():
    """u(x, y) = x * y on [0, 1]^2; handy because expectations factor."""
    unit = Box((0.0,), (1.0,))
    return GameDefinition(unit, unit, lambda x, y: x[..., 0] * y[..., 0])


# ---------------------------------------------------------------- points

def test_point_coords_are_floats():
    p = point(1, 2, 3)
    assert p.coords == (1.0, 2.0, 3.0)
    assert p.dim == 3
    assert p.array().dtype == np.float64


def test_point_rejects_nonfinite():
    with pytest.raises(DomainError):
        point(math.nan)
    with pytest.raises(DomainError):
        point(0.0, math.inf)
    with pytest.raises(DomainError):
        StrategyPoint(())


# ---------------------------------------------------------------- spaces

def test_box_membership_with_tolerance():
    b = Box((-1.0,), (1.0,))
    assert b.contains(point(1.0))
    assert b.contains(point(1.0 + 1e-10))  # within membership slack
    assert not b.contains(point(1.1))
    assert not b.contains(point(0.0, 0.0))  # wrong dimension


def test_box_validation():
    with pytest.raises(ParameterError):
        Box((0.0,), (0.0, 1.0))
    with pytest.raises(ParameterError):
        Box((2.0,), (1.0,))
    with pytest.raises(ParameterError):
        Box((0.0,), (math.inf,))


def test_box_grid_endpoints_and_spacing():
    g = Box((-1.0,), (1.0,)).grid_points(0.1)
    assert g[0] == -1.0 and g[-1] == 1.0
    assert len(g) == 21
    assert np.diff(g).max() <= 0.1 + 1e-12
    # non-divisible spacing rounds the step count up, never stretches spacing
    g2 = Box((0.0,), (1.0,)).grid_points(0.3)
    assert np.diff(g2).max() <= 0.3 + 1e-12
    # a degenerate interval holds its one point once
    assert Box((0.5,), (0.5,)).grid_points(1e-3).tolist() == [0.5]
    with pytest.raises(ParameterError):
        Box((0.0, 0.0), (1.0, 1.0)).grid_points(0.1)
    for bad in (0.0, math.nan):
        with pytest.raises(ParameterError):
            Box((0.0,), (1.0,)).grid_points(bad)


def test_equilibrium_x_is_on_the_default_grid():
    # the 1e-4 grid on [-1, 1] must hit 0.2 exactly for clean benchmarks
    g = Box((-1.0,), (1.0,)).grid_points(1e-4)
    assert np.abs(g - 0.2).min() <= 1e-13


def test_interval_union_orders_and_validates():
    u = IntervalUnion(((2.0, 3.0), (0.0, 1.0)))
    assert u.pieces == ((0.0, 1.0), (2.0, 3.0))
    assert u.contains(point(0.5)) and u.contains(point(2.5))
    assert not u.contains(point(1.5))
    with pytest.raises(ParameterError):
        IntervalUnion(((0.0, 2.0), (1.0, 3.0)))  # overlap
    with pytest.raises(ParameterError):
        IntervalUnion(((1.0, 1.0),))
    with pytest.raises(ParameterError):
        IntervalUnion(())


def test_interval_union_grid_covers_both_pieces():
    u = IntervalUnion(((0.0, 1.0), (2.0, 3.0)))
    g = u.grid_points(0.5)
    assert set(np.round(g, 12)) == {0.0, 0.5, 1.0, 2.0, 2.5, 3.0}
    rng = np.random.default_rng(0)
    assert all(u.contains(u.sample(rng)) for _ in range(20))


def test_simplex_membership_and_sampling():
    s = Simplex(3)
    assert s.contains(point(0.2, 0.3, 0.5))
    assert not s.contains(point(0.2, 0.3))
    assert not s.contains(point(0.6, 0.6, -0.2))
    assert not s.contains(point(0.5, 0.5, 0.1))
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert s.contains(s.sample(rng))
    with pytest.raises(ParameterError):
        Simplex(0)


# ---------------------------------------------------------------- mixtures

def test_mixture_invariants_enforced():
    with pytest.raises(InvalidStrategyError):
        FiniteMixedStrategy((), ())
    with pytest.raises(InvalidStrategyError):
        FiniteMixedStrategy((point(0.0),), (0.5, 0.5))
    with pytest.raises(InvalidStrategyError):
        FiniteMixedStrategy((point(0.0),), (-1.0,))
    with pytest.raises(InvalidStrategyError):
        FiniteMixedStrategy((point(0.0), point(1.0)), (0.3, 0.3))
    with pytest.raises(InvalidStrategyError):
        FiniteMixedStrategy((point(0.0), point(0.0, 1.0)), (0.5, 0.5))
    with pytest.raises(InvalidStrategyError):
        FiniteMixedStrategy((point(0.0), point(0.0)), (0.5, 0.5))


def test_dirac_and_support_size():
    d = dirac(point(0.25))
    assert d.support_size == 1
    assert d.weights == (1.0,)


def test_merge_exact_duplicate():
    m = merge_duplicates([point(0.5), point(0.5)], [0.3, 0.7])
    assert m.support_size == 1
    assert m.weights == (1.0,)


def test_merge_keeps_distinct_atoms():
    m = merge_duplicates([point(0.0), point(1.0)], [0.2, 0.8])
    assert m.support_size == 2
    assert m.weights == (0.2, 0.8)


def test_merge_keeps_near_duplicates_apart():
    # only exact duplicates fold; the solvers suppress near-duplicates
    m = merge_duplicates([point(0.0), point(1e-12)], [0.5, 0.5])
    assert m.atoms == (point(0.0), point(1e-12))
    assert m.weights == (0.5, 0.5)


def test_merge_drops_zero_weights_and_renormalizes():
    m = merge_duplicates([point(0.0), point(1.0), point(2.0)], [0.0, 1.0, 3.0])
    assert [a.coords[0] for a in m.atoms] == [1.0, 2.0]
    assert math.fsum(m.weights) == pytest.approx(1.0, abs=1e-15)
    assert m.weights[1] == pytest.approx(0.75)


def test_merge_rejects_degenerate_input():
    with pytest.raises(InvalidStrategyError):
        merge_duplicates([], [])
    with pytest.raises(InvalidStrategyError):
        merge_duplicates([point(0.0)], [0.0])
    with pytest.raises(InvalidStrategyError):
        merge_duplicates([point(0.0)], [-0.5])


@given(
    w1=st.floats(0.01, 10.0),
    w2=st.floats(0.01, 10.0),
    x1=st.floats(0.0, 1.0),
    x2=st.floats(0.0, 1.0),
)
def test_merge_preserves_expected_utility(w1, w2, x1, x2):
    game = bilinear_game()
    q = dirac(point(0.7))
    merged = merge_duplicates([point(x1), point(x2)], [w1, w2])
    total = w1 + w2
    direct = (w1 * x1 + w2 * x2) / total * 0.7
    assert expected_utility(merged, q, game) == pytest.approx(direct, abs=1e-9)


# ---------------------------------------------------------------- utility

def test_expected_utility_known_equilibrium_value():
    game = make_polynomial_game()
    p = dirac(point(0.2))
    q = FiniteMixedStrategy((point(1.0), point(-1.0)), (0.78, 0.22))
    assert expected_utility(p, q, game) == pytest.approx(-0.48, abs=1e-12)


def test_expected_utility_pure_pure_equals_direct_eval():
    game = make_polynomial_game()
    assert expected_utility(dirac(point(0.3)), dirac(point(-0.4)), game) == pytest.approx(
        float(game.utility(np.array([0.3]), np.array([-0.4]))), abs=1e-15
    )


def test_expected_utility_uniform_product():
    game = bilinear_game()
    u = FiniteMixedStrategy((point(0.0), point(1.0)), (0.5, 0.5))
    assert expected_utility(u, u, game) == pytest.approx(0.25, abs=1e-15)


def test_expected_utility_names_offending_atom():
    game = bilinear_game()
    with pytest.raises(DomainError, match="7.0"):
        expected_utility(dirac(point(7.0)), dirac(point(0.5)), game)
    with pytest.raises(DomainError, match="player 2"):
        expected_utility(dirac(point(0.5)), dirac(point(-3.0)), game)


@given(
    alpha=st.floats(0.0, 1.0),
    a1=st.floats(-1.0, 1.0),
    a2=st.floats(-1.0, 1.0),
    b=st.floats(-1.0, 1.0),
)
def test_expected_utility_bilinear_in_weights(alpha, a1, a2, b):
    game = make_polynomial_game()
    p1, p2 = dirac(point(a1)), dirac(point(a2))
    q = dirac(point(b))
    mix = merge_duplicates([point(a1), point(a2)], [alpha, 1.0 - alpha])
    want = alpha * expected_utility(p1, q, game) + (1 - alpha) * expected_utility(p2, q, game)
    assert expected_utility(mix, q, game) == pytest.approx(want, abs=1e-12)
