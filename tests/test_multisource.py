import math

import pytest

from uavrelay.errors import DomainError
from uavrelay.multisource import (HypotheticalMsi, InterferenceSource,
                                  fit_hypothetical_msi, total_interference)

from conftest import make_scenario


def test_source_rejects_nonpositive_power():
    with pytest.raises(DomainError):
        InterferenceSource(0.0, 0.0, 0.0)


@pytest.mark.parametrize("x, y, power", [
    (0.0, 0.0, math.nan), (0.0, 0.0, math.inf), (math.nan, 0.0, 1.0),
    (math.inf, 0.0, 1.0), (0.0, math.nan, 1.0), (0.0, -math.inf, 1.0)])
def test_source_rejects_non_finite(x, y, power):
    with pytest.raises(DomainError):
        InterferenceSource(x, y, power)


def test_total_interference_additive():
    a = InterferenceSource(100.0, 50.0, 2.0)
    b = InterferenceSource(400.0, 10.0, 3.0)
    eta = 7.0
    lone = (total_interference([a], 250.0, 0.0, 30.0, eta)
            + total_interference([b], 250.0, 0.0, 30.0, eta))
    both = total_interference([a, b], 250.0, 0.0, 30.0, eta)
    assert both == pytest.approx(lone, rel=1e-12)


def test_total_interference_inverse_square():
    src = InterferenceSource(0.0, 0.0, 8.0)
    near = total_interference([src], 10.0, 0.0, 10.0, 1.0)
    far = total_interference([src], 20.0, 0.0, 20.0, 1.0)
    assert near == pytest.approx(4.0 * far, rel=1e-12)


def test_fit_single_source_identity(channel):
    s = make_scenario(channel, msi_y=100.0)
    src = InterferenceSource(317.3, 84.2, 12.5)
    fit = fit_hypothetical_msi([src], s)
    assert fit.x_h == pytest.approx(src.x, abs=1e-6)
    assert fit.y_h == pytest.approx(src.y, abs=1e-6)
    assert fit.p_h == pytest.approx(src.power, rel=1e-9)
    assert fit.residual < 1e-10


def test_fit_colocated_pair_sums_power(channel):
    s = make_scenario(channel, msi_y=100.0)
    pair = [InterferenceSource(300.0, 60.0, 5.0),
            InterferenceSource(300.0, 60.0, 7.5)]
    fit = fit_hypothetical_msi(pair, s)
    assert fit.p_h == pytest.approx(12.5, rel=1e-6)
    assert fit.x_h == pytest.approx(300.0, abs=1e-6)


def test_fit_residual_grows_with_separation(channel):
    s = make_scenario(channel, msi_y=100.0)
    residuals = []
    for sep in (5.0, 10.0, 20.0, 40.0):
        srcs = [InterferenceSource(300.0 - sep / 2.0, 60.0, 5.0),
                InterferenceSource(300.0 + sep / 2.0, 60.0, 5.0)]
        residuals.append(fit_hypothetical_msi(srcs, s).residual)
    assert all(b > a for a, b in zip(residuals, residuals[1:]))


def test_fit_needs_sources(channel):
    s = make_scenario(channel)
    with pytest.raises(DomainError):
        fit_hypothetical_msi([], s)


def test_as_scenario_installs_fit(channel):
    s = make_scenario(channel)
    fit = HypotheticalMsi(123.0, 45.0, 6.7, 0.0)
    s2 = fit.as_scenario(s)
    assert s2.msi_x == 123.0 and s2.msi_y == 45.0 and s2.p_msi == 6.7
    assert s2.p_tx == s.p_tx and s2.channel is s.channel
