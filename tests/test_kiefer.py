"""The exact law of the sup of a squared d-dimensional Brownian bridge."""

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy import optimize, special

from funcbreak.detect import KieferLaw, simulate_null_limit


@lru_cache(maxsize=None)
def bessel_zeros(nu, count):
    """The first positive zeros of J_nu, from scipy alone."""
    if nu == int(nu):
        return special.jn_zeros(int(nu), count)
    grid = np.arange(0.05, (count + abs(nu) + 2) * np.pi, 0.05)
    values = special.jv(nu, grid)
    starts = np.nonzero(np.sign(values[:-1]) != np.sign(values[1:]))[0][:count]
    return np.array([optimize.brentq(lambda z: special.jv(nu, z), grid[i], grid[i + 1],
                                     xtol=1e-14) for i in starts])


def scipy_cdf(d, x, count=200):
    """Kiefer's series with scipy's Bessel zeros and values."""
    nu = d / 2.0 - 1.0
    j = bessel_zeros(nu, count)
    terms = j ** (2.0 * nu) / special.jv(nu + 1.0, j) ** 2 * np.exp(-j * j / (2.0 * x))
    return min(4.0 / (math.gamma(d / 2.0) * (2.0 * x) ** (d / 2.0)) * terms.sum(), 1.0)


@pytest.mark.parametrize("d", range(1, 22))
def test_cdf_matches_the_series_with_scipy_bessel_functions(d):
    law = KieferLaw(d)
    for x in np.geomspace(0.05, 40.0, 25):
        assert law.cdf(float(x)) == pytest.approx(scipy_cdf(d, x), abs=1e-10)


def test_one_dimension_is_kolmogorovs_law():
    # P(sup |B| <= s) = 1 - 2 sum_k (-1)^(k-1) exp(-2 k^2 s^2)
    law = KieferLaw(1)
    for x in (0.05, 0.2, 0.5, 1.0, 1.8444, 3.0, 8.0):
        k = np.arange(1, 200)
        kolmogorov = 1.0 - 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k * k * x))
        assert law.cdf(x) == pytest.approx(kolmogorov, abs=1e-12)


@pytest.mark.parametrize("d, expected", [(1, 1.8444), (2, 2.5084), (3, 3.0529),
                                         (4, 3.5429), (8, 5.2591), (21, 9.9661)])
def test_95_percent_quantiles(d, expected):
    assert round(KieferLaw(d).quantile(0.95), 4) == expected


@pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 21])
def test_quantile_inverts_cdf(d):
    law = KieferLaw(d)
    for q in (0.001, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999):
        x = law.quantile(q)
        assert law.cdf(x) == pytest.approx(q, abs=1e-12)
        assert law.quantile(law.cdf(x)) == pytest.approx(x, rel=1e-9)
    assert law.cdf(0.0) == 0.0 and law.cdf(-1.0) == 0.0 and law.cdf(1e6) == 1.0


@pytest.mark.parametrize("d, seed", [(1, 31), (2, 32), (4, 33)])
def test_grid_simulation_lies_below_the_exact_law(d, seed):
    # a grid maximum never exceeds the sup: the share of simulated draws at or
    # below each exact quantile is at least the level, up to Monte Carlo error,
    # and exceeds it by no more than the grid's shortfall (under 0.03 in level
    # at 1000 steps, measured with 20000 draws)
    law = KieferLaw(d)
    reps = 4000
    draws = simulate_null_limit(np.ones(d), reps=reps, grid=1000, seed=seed).draws
    for q in (0.5, 0.9, 0.95, 0.99):
        share = float(np.mean(draws <= law.quantile(q)))
        se = math.sqrt(q * (1.0 - q) / reps)
        assert -3.0 * se <= share - q <= 0.03 + 3.0 * se
    assert np.quantile(draws, 0.5) < law.quantile(0.5)


def test_law_checks_its_arguments():
    for d in (0, -1, 1.5, 151):
        with pytest.raises(ValueError, match="dimension"):
            KieferLaw(d)
    for q in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError, match="level"):
            KieferLaw(2).quantile(q)
