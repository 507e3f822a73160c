"""Unit tests for the QBD rate-matrix machinery."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.markov import drift_condition, geometric_tail_sums, solve_rate_matrix


def mm1_blocks(arrival=0.5, service=1.0):
    """M/M/1 as a 1-phase QBD."""
    a0 = np.array([[arrival]])
    a2 = np.array([[service]])
    a1 = np.array([[-(arrival + service)]])
    return a0, a1, a2


class TestRateMatrix:
    def test_mm1_rate_matrix_is_rho(self):
        a0, a1, a2 = mm1_blocks(0.5, 1.0)
        r = solve_rate_matrix(a0, a1, a2)
        assert r[0, 0] == pytest.approx(0.5)

    def test_solves_quadratic_exactly(self):
        from repro.markov import SbusChain
        chain = SbusChain(arrival_rate=1.0, transmission_rate=2.0,
                          service_rate=0.7, resources=3)
        a0, a1, a2 = chain.qbd_blocks()
        r = solve_rate_matrix(a0, a1, a2)
        residual = a0 + r @ a1 + r @ r @ a2
        assert np.max(np.abs(residual)) < 1e-10

    def test_rate_matrix_nonnegative(self):
        from repro.markov import SbusChain
        chain = SbusChain(arrival_rate=0.5, transmission_rate=1.0,
                          service_rate=0.5, resources=2)
        r = solve_rate_matrix(*chain.qbd_blocks())
        assert np.min(r) >= -1e-12

    def test_bus_stall_lowers_capacity(self):
        """The bus idles while all resources are busy, so capacity is below
        min(mu_n, r mu_s): for mu_n=1, mu_s=0.5, r=2 it is 0.6, not 1.0."""
        from repro.markov import SbusChain
        chain = SbusChain(arrival_rate=0.59, transmission_rate=1.0,
                          service_rate=0.5, resources=2)
        drift = drift_condition(*chain.qbd_blocks())
        assert drift == pytest.approx(0.59 - 0.6, abs=1e-9)
        overloaded = SbusChain(arrival_rate=0.61, transmission_rate=1.0,
                               service_rate=0.5, resources=2)
        with pytest.raises(AnalysisError):
            solve_rate_matrix(*overloaded.qbd_blocks())

    def test_unstable_rejected(self):
        a0, a1, a2 = mm1_blocks(arrival=2.0, service=1.0)
        with pytest.raises(AnalysisError):
            solve_rate_matrix(a0, a1, a2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            solve_rate_matrix(np.eye(2), np.eye(3), np.eye(2))

    def test_non_finite_block_rejected_by_name(self):
        a0, a1, a2 = mm1_blocks(0.5, 1.0)
        a0[0, 0] = np.nan
        with pytest.raises(AnalysisError, match="A0"):
            solve_rate_matrix(a0, a1, a2)

    def test_overflowing_iterate_named(self):
        """Finite blocks whose first iterate overflows stop at once."""
        with pytest.raises(AnalysisError, match="iterate 1 "):
            solve_rate_matrix(np.array([[1e300]]), np.array([[-1e-300]]),
                              np.array([[1e300]]))


class TestDrift:
    def test_mm1_drift(self):
        a0, a1, a2 = mm1_blocks(0.5, 1.0)
        assert drift_condition(a0, a1, a2) == pytest.approx(-0.5)

    def test_positive_drift_when_overloaded(self):
        a0, a1, a2 = mm1_blocks(arrival=3.0, service=1.0)
        assert drift_condition(a0, a1, a2) > 0


class TestTailSums:
    def test_geometric_mass(self):
        # Scalar case: pi (I - R)^-1 = pi / (1 - rho).
        boundary = np.array([0.3])
        r = np.array([[0.5]])
        mass, first_moment = geometric_tail_sums(boundary, r)
        assert mass == pytest.approx(0.3 / 0.5)
        # sum j rho^j = rho / (1-rho)^2
        assert first_moment == pytest.approx(0.3 * 0.5 / 0.25)
