"""Tests for the prebuilt paper scenarios."""

import numpy as np
import pytest

from repro.scenarios import paper_scenario, small_scenario


class TestSmallScenario:
    def test_structure(self, fortnight_scenario):
        sc = fortnight_scenario
        assert sc.horizon == 24 * 14
        assert sc.model.fleet.num_groups == 8
        assert sc.environment.portfolio.horizon == sc.horizon

    def test_budget_is_92_percent_of_unaware(self, fortnight_scenario):
        sc = fortnight_scenario
        assert sc.budget == pytest.approx(0.92 * sc.unaware_brown)
        assert sc.budget_fraction == pytest.approx(0.92)

    def test_workload_peak_is_half_capacity(self, fortnight_scenario):
        sc = fortnight_scenario
        assert sc.environment.actual_workload.peak == pytest.approx(
            0.5 * sc.model.fleet.max_capacity
        )

    def test_offsite_rec_split(self, fortnight_scenario):
        """Default budget: 40% off-site renewables, 60% RECs."""
        pf = fortnight_scenario.environment.portfolio
        assert pf.offsite_fraction == pytest.approx(0.40)
        assert pf.carbon_budget == pytest.approx(
            fortnight_scenario.budget / fortnight_scenario.alpha
        )

    def test_onsite_share(self, fortnight_scenario):
        """On-site renewables ~20% of the unaware facility energy."""
        sc = fortnight_scenario
        onsite = sc.environment.portfolio.onsite.total
        # unaware brown + onsite used >= unaware facility energy; the 20%
        # scaling is relative to total facility energy of the no-renewable
        # unaware run, so just sanity-check the ballpark.
        assert 0.05 * sc.unaware_brown < onsite < 0.6 * sc.unaware_brown

    def test_reproducible(self):
        a = small_scenario(horizon=24 * 3)
        b = small_scenario(horizon=24 * 3)
        np.testing.assert_array_equal(
            a.environment.actual_workload.values, b.environment.actual_workload.values
        )
        assert a.unaware_brown == b.unaware_brown


class TestScenarioTransforms:
    def test_with_budget_fraction(self, fortnight_scenario):
        sc = fortnight_scenario.with_budget_fraction(0.85)
        assert sc.budget == pytest.approx(0.85 * sc.unaware_brown)
        assert sc.environment.portfolio.carbon_budget == pytest.approx(
            sc.budget / sc.alpha
        )
        # Original untouched.
        assert fortnight_scenario.budget_fraction == pytest.approx(0.92)

    def test_with_budget_fraction_keeps_split(self, fortnight_scenario):
        sc = fortnight_scenario.with_budget_fraction(0.85)
        assert sc.environment.portfolio.offsite_fraction == pytest.approx(0.40)

    def test_with_budget_fraction_override_split(self, fortnight_scenario):
        sc = fortnight_scenario.with_budget_fraction(0.92, offsite_fraction=0.7)
        assert sc.environment.portfolio.offsite_fraction == pytest.approx(0.7)

    def test_with_switching(self, fortnight_scenario):
        sc = fortnight_scenario.with_switching(0.10)
        assert sc.model.switching is not None
        assert sc.model.switching.energy_per_toggle == pytest.approx(2.31e-5)

    def test_invalid_fraction(self, fortnight_scenario):
        with pytest.raises(ValueError):
            fortnight_scenario.with_budget_fraction(0.0)


class TestPaperScenario:
    def test_msr_variant(self):
        sc = paper_scenario(
            horizon=24 * 7, workload="msr", num_groups=4, servers_per_group=20
        )
        assert sc.environment.actual_workload.name == "msr-workload"

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            paper_scenario(horizon=24, workload="nope")

    @pytest.mark.parametrize("horizon, seed", [(12, 1), (72, 545), (72, 1314)])
    def test_short_horizon_with_calm_wind_builds(self, horizon, seed):
        # These seeds draw an all-zero wind trace over the horizon.
        sc = paper_scenario(horizon=horizon, seed=seed)
        assert sc.environment.portfolio.onsite.total > 0

    @pytest.mark.slow
    def test_paper_scale_defaults(self):
        sc = paper_scenario(horizon=24 * 7)
        assert sc.model.fleet.num_servers == 216_000
        assert sc.model.beta == 10.0
