"""Shared pytest hooks: roll up the acceptance verdict lines in the
terminal summary, where they survive output capture.  Also the tests' exact
Kolmogorov reference, ``brute_force_ks``, and ``assert_brackets``."""

import math

import numpy as np
from scipy.special import ndtr

_acceptance_lines: list[str] = []


def record_acceptance_line(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def brute_force_ks(values, cdf):
    """The exact sup_t |F_N(t) - Phi(t)|: both one-sided gaps at every order
    statistic of the sorted ``values``, with ``cdf`` for Phi at every point
    (the tests pass scipy's ``ndtr``).  A NaN among the values gives NaN."""
    x = np.sort(values)
    if np.isnan(x[-1]):  # the sort puts NaN last
        return float("nan")
    phi, after = cdf(x), np.arange(1, len(x) + 1) / len(x)
    return float(np.maximum(after - phi, phi - (after - 1.0 / len(x))).max())


# the largest rise of Phi over one cell of the Kolmogorov count grid,
# 2^-10 phi(0): K_lo is at most this far below the exact statistic
CELL_RISE = 2.0**-10 / math.sqrt(2.0 * math.pi)


def assert_brackets(estimate, values, tol=1e-14):
    """A count estimate's K_lo and K_hi bracket the exact statistic of
    ``values``, and K_lo is within one cell's rise of Phi below it, up to
    ``tol`` (the binning's rounding)."""
    exact = brute_force_ks(values, ndtr)
    assert exact - CELL_RISE - tol <= estimate.point_estimate <= exact + tol
    assert exact <= estimate.upper_estimate + tol
