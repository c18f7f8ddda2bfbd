import math

import pytest

from ppszlab import suites
from ppszlab.analysis import (
    AnalysisConfig,
    binary_entropy,
    crossover_delta,
    entropy_binomial_bound,
    fixpoint_k3,
    lambda_k,
    r_grid,
    r_integral_bounds,
    r_sequence_bounds,
    r_value,
    runtime_exponent,
)


def test_lambda_three_closed_form():
    # sum over j of 1/(j(2j+1)) telescopes to 2 - 2 ln 2
    assert math.isclose(lambda_k(3), 2.0 - 2.0 * math.log(2.0), abs_tol=1e-11)


def test_lambda_four_closed_form():
    # partial fractions against the digamma function at 1/3
    want = 3.0 - 1.5 * math.log(3.0) - math.pi / (2.0 * math.sqrt(3.0))
    assert math.isclose(lambda_k(4), want, abs_tol=1e-11)


def test_lambda_decreases_with_width():
    values = [lambda_k(k) for k in range(3, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] < 1.0


def test_lambda_tolerance_tightens_the_tail():
    rough = lambda_k(3, tol=1e-6)
    fine = lambda_k(3, tol=1e-14)
    assert math.isclose(rough, fine, abs_tol=1e-6)


def test_lambda_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lambda_k(1)
    with pytest.raises(ValueError):
        lambda_k(3, tol=0.0)


def test_memoised_lambda_is_bit_identical_to_a_fresh_sum():
    for k, tol in [(3, 1e-12), (4, 1e-12), (5, 1e-9)]:
        first = lambda_k(k, tol)
        assert lambda_k(k, tol) == first == lambda_k.__wrapped__(k, tol)
    # failures are not memoised: a bad call raises every time
    for _ in range(2):
        with pytest.raises(ValueError):
            lambda_k(1)


def test_binary_entropy_landmarks():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert math.isclose(binary_entropy(1.0 / 480.0), 0.02155, abs_tol=5e-5)
    assert binary_entropy(0.25) == binary_entropy(0.75)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_entropy_bound_pairs():
    assert entropy_binomial_bound(10, 0.0) == (1, 1.0)
    binom, bound = entropy_binomial_bound(10, 0.5)
    assert binom == 252
    assert bound == 1024.0
    binom, bound = entropy_binomial_bound(20, 0.25)
    assert binom == 15504
    assert math.isclose(bound, 2.0 ** (binary_entropy(0.25) * 20))
    assert binom <= bound


def test_entropy_bound_requires_integral_counts():
    with pytest.raises(ValueError):
        entropy_binomial_bound(10, 0.15)
    with pytest.raises(ValueError):
        entropy_binomial_bound(0, 0.0)


def test_runtime_exponent_at_the_endpoints():
    base = 2.0 ** runtime_exponent(3, 0.0)
    assert math.isclose(base, 1.3070319077021462, abs_tol=1e-9)
    assert math.isclose(runtime_exponent(3, 1.0), 1.0, abs_tol=1e-12)
    assert runtime_exponent(3, 0.0) == 1.0 - lambda_k(3)


def test_runtime_exponent_grows_on_the_left_half():
    samples = [runtime_exponent(3, d) for d in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)]
    assert all(a < b for a, b in zip(samples, samples[1:]))


def test_crossover_against_a_known_competitor():
    delta = crossover_delta(3, 1.328)
    assert math.isclose(delta, 1.0 / 480.0, rel_tol=0.1)
    # the root actually solves the equation
    assert math.isclose(
        runtime_exponent(3, delta), math.log2(1.328), abs_tol=1e-9
    )


def test_crossover_round_trips_through_the_exponent():
    target = runtime_exponent(4, 0.01)
    delta = crossover_delta(4, 2.0**target)
    assert math.isclose(delta, 0.01, abs_tol=1e-9)


def test_crossover_error_cases():
    with pytest.raises(ValueError):
        crossover_delta(3, 1.0)
    # slower than the solver's worst case: the advantage never runs out
    with pytest.raises(ValueError):
        crossover_delta(3, 4.0)
    # faster than the solver at delta 0: no advantage anywhere
    with pytest.raises(ValueError):
        crossover_delta(3, 1.2)


def test_recurrence_iterates_from_zero():
    assert r_value(3, 0, 0.3) == 0.0
    assert r_value(3, 1, 0.3) == pytest.approx(0.09)
    assert r_value(3, 2, 0.3) == pytest.approx((0.3 + 0.7 * 0.09) ** 2)
    assert r_value(3, 50, 1.0) == 1.0
    with pytest.raises(ValueError):
        r_value(1, 3, 0.5)
    with pytest.raises(ValueError):
        r_value(3, -1, 0.5)
    with pytest.raises(ValueError):
        r_value(3, 3, 1.5)


def test_recurrence_approaches_the_closed_form_fixpoint():
    for y in (0.0, 0.1, 0.3, 0.45):
        assert math.isclose(r_value(3, 200, y), fixpoint_k3(y), abs_tol=1e-6)
    assert fixpoint_k3(0.5) == 1.0
    assert fixpoint_k3(0.75) == 1.0
    with pytest.raises(ValueError):
        fixpoint_k3(-0.5)


@pytest.mark.parametrize(
    "mutant",
    [
        lambda k, j, y: r_value(k, j, y) * (1.0 + 1e-9),  # passes the fixpoint
        lambda k, j, y: r_value(k, 4 - j, y),  # falls instead of rising
    ],
    ids=["overshoot", "falling"],
)
def test_recurrence_grid_check_catches_a_broken_recurrence(monkeypatch, mutant):
    assert suites.rgrid_suite(grid=500, profile_n=20).passed
    monkeypatch.setattr(suites, "r_value", mutant)
    report = suites.rgrid_suite(grid=500, profile_n=20)
    assert not report.passed
    assert report.checked == 6
    assert "fixpoint" in report.failures[0]


def test_grid_and_bounds_bracket_the_integral():
    values = r_grid(3, 8, 100)
    assert len(values) == 101
    assert values[0] == 0.0
    assert values[-1] == 1.0
    assert all(a <= b for a, b in zip(values, values[1:]))
    low, high = r_integral_bounds(3, 8, 100)
    assert low < high
    assert math.isclose(low, sum(values[:-1]) / 100)
    assert math.isclose(high, sum(values[1:]) / 100)


def test_integral_bracket_approaches_the_series_constant():
    # the limiting recurrence integrates to the forced-fraction constant,
    # and finite iterates approach it from below
    lam = lambda_k(3)
    low, high = r_integral_bounds(3, 200, 2000)
    assert high - low == pytest.approx(1.0 / 2000.0)
    assert low < lam
    assert lam - low < 5e-4
    closer = r_integral_bounds(3, 400, 2000)[0]
    assert closer > low


def test_sequence_bounds_match_single_calls():
    seq = r_sequence_bounds(3, 6, 500)
    assert seq[0] == (0.0, 0.0)
    assert len(seq) == 7
    for j in (1, 3, 6):
        assert seq[j] == r_integral_bounds(3, j, 500)
    lows = [pair[0] for pair in seq]
    assert all(a <= b for a, b in zip(lows, lows[1:]))


def test_bound_argument_validation():
    with pytest.raises(ValueError):
        r_grid(3, 5, 0)
    with pytest.raises(ValueError):
        r_sequence_bounds(3, -1, 10)


def test_analysis_defaults():
    cfg = AnalysisConfig()
    assert cfg.tol == 1e-12
    assert cfg.grid == 10_000
    assert cfg.iterations == 30
