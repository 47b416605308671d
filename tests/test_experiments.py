from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restaking.bruteforce import best_attack
from restaking.experiments import (
    Table,
    degree_grid,
    min_stake_mip,
    sweep_failure_decomposition,
    sweep_failure_threshold,
    sweep_min_stake_mip,
    sweep_min_stake_robustness,
    sweep_min_stake_security,
    sweep_mip_vs_theory,
    write_csv,
)
from restaking.model import apply_byzantine, byzantine_subsets, byzantine_weight_cap
from restaking.symmetry import SweepTemplate


def oracle_attackable(net, budget, fraction) -> bool:
    """Exhaustive search: some admissible Byzantine set leaves a budget-costly attack."""
    for subset in byzantine_subsets(net, byzantine_weight_cap(net, fraction)):
        slashed = apply_byzantine(net, subset)
        if slashed.services and best_attack(slashed)[0] >= -budget - 1e-9:
            return True
    return False


class TestSecuritySweep:
    def test_integer_threshold_row_is_flat(self):
        table = sweep_min_stake_security(10, 10, [0.5], [1.0, 2.0, 5.0, 10.0])
        assert table.columns == ["restaking_degree", "min_stake_threshold_0.50"]
        for value in table.column("min_stake_threshold_0.50"):
            assert value == pytest.approx(2.0, abs=1e-5)

    def test_fractional_threshold_start(self):
        table = sweep_min_stake_security(10, 10, [1 / 3], [1.0, 3.0])
        col = table.column("min_stake_threshold_0.33")
        assert col[0] == pytest.approx(3.0, abs=1e-5)
        assert col[1] == pytest.approx(2.5, abs=1e-5)

    def test_odd_size_curve_not_constant(self):
        table = sweep_min_stake_security(11, 11, [1 / 3], [1.0, 5.0, 11.0])
        col = table.column("min_stake_threshold_0.33")
        assert max(col) - min(col) > 1e-3


class TestRobustnessSweep:
    def test_reduces_to_security_at_zero(self):
        degrees = [1.0, 2.0, 4.0]
        security = sweep_min_stake_security(10, 10, [1 / 3], degrees)
        robustness = sweep_min_stake_robustness(
            10, 10, 1 / 3, 1.0, budgets=[0], f_grid=[0.0], degree_grid=degrees
        )[0]
        sec = security.column("min_stake_threshold_0.33")
        rob = robustness.column("min_stake_threshold_0.00")
        for a, b in zip(sec, rob):
            assert a == pytest.approx(b, abs=1e-6)

    def test_base_gap_at_minimal_degree(self):
        degrees = [1.0]
        plain = sweep_min_stake_robustness(
            15, 15, 1 / 3, 1.0, budgets=[0], f_grid=[0.0], degree_grid=degrees
        )[0]
        with_base = sweep_min_stake_robustness(
            15, 15, 1 / 3, 1.0, budgets=[0], f_grid=[0.0], degree_grid=degrees,
            base=(10.0, 1 / 3),
        )[0]
        gap = (
            with_base.column("min_stake_threshold_0.00")[0]
            - plain.column("min_stake_threshold_0.00")[0]
        )
        assert gap == pytest.approx(2.0, abs=1e-3)

    def test_unsatisfiable_cell_is_nan(self):
        table = sweep_min_stake_robustness(
            15, 15, 1 / 3, 1.0, budgets=[2], f_grid=[1 / 3], degree_grid=[3.0]
        )[2]
        assert math.isnan(table.rows[0][1])


class TestFailureSweep:
    def test_step_function_shape(self):
        template = SweepTemplate(n_validators=15, n_services=15, threshold=1 / 3)
        f_grid = [k / 15 for k in range(8)]
        table = sweep_failure_threshold(template, 10.0, [1.0, 2.0], f_grid)
        for name in ("min_budget_1.00", "min_budget_2.00"):
            col = table.column(name)
            assert all(a >= b - 1e-9 for a, b in zip(col, col[1:]))

    def test_degree_one_single_service_margin(self):
        template = SweepTemplate(n_validators=15, n_services=15, threshold=1 / 3)
        table = sweep_failure_threshold(template, 10.0, [1.0], [0.0])
        assert table.rows[0][1] == pytest.approx(5 * (10 / 15) - 1)

    def test_degree_one_survives_the_highest_fraction(self):
        # Low restaking degrees trade budget tolerance for Byzantine
        # tolerance: the degree-1 column must stay positive the longest.
        template = SweepTemplate(n_validators=15, n_services=15, threshold=1 / 3)
        f_grid = [k / 15 for k in range(13)]
        table = sweep_failure_threshold(template, 10.0, [1.0, 2.0, 3.0], f_grid)

        def last_positive(name):
            col = table.column(name)
            return max((i for i, v in enumerate(col) if v > 0), default=-1)

        assert last_positive("min_budget_1.00") >= last_positive("min_budget_2.00")
        assert last_positive("min_budget_2.00") >= last_positive("min_budget_3.00")
        assert last_positive("min_budget_1.00") > last_positive("min_budget_3.00")

    def test_decomposition_combined_dominates_base_at_low_f(self):
        f_grid = [0.0, 1 / 15, 2 / 15]
        table = sweep_failure_decomposition(
            15, 15, 1 / 3, 1.0, 10.0, 1 / 3,
            stakes=(2.4, 5.4, 7.8), degrees=(5 / 3, 45 / 37), f_grid=f_grid,
        )
        base = table.column("min_budget_base_only")
        combined = table.column("min_budget_total")
        assert all(c >= b - 1e-9 for b, c in zip(base, combined))
        # base service alone is flat: no other services can turn Byzantine
        assert max(base) - min(base) <= 1e-12


class TestMipVsTheory:
    def test_small_grid_agrees(self):
        tables = sweep_mip_vs_theory(
            3, 3, 1 / 3, 1.0, budgets=[0, 1], f_values=[0.0, 1 / 3],
            degree_grid=[1.0, 2.0],
        )
        for table in tables.values():
            assert all(table.column("agree"))

    def test_fig8_configuration_populates(self):
        tables = sweep_min_stake_mip(
            3, 3, 1 / 3, 1.0, budgets=[0], f_grid=[0.0, 1 / 3, 1 / 2],
            degree_grid=[1.5], base=(10.0, 0.5),
        )
        table = tables[0]
        row = table.rows[0]
        assert all(isinstance(v, float) and v > 0 for v in row[1:])

    def test_f_third_and_half_coincide_with_base(self):
        # With three weight-3 services, caps 3 and 4.5 admit the same
        # Byzantine sets, so the stake requirements must coincide.
        tables = sweep_min_stake_mip(
            3, 3, 1 / 3, 1.0, budgets=[1], f_grid=[1 / 3, 1 / 2],
            degree_grid=[1.0, 2.0], base=(10.0, 0.5),
        )
        table = tables[1]
        third = table.column("min_stake_threshold_0.33")
        half = table.column("min_stake_threshold_0.50")
        for a, b in zip(third, half):
            assert a == pytest.approx(b, abs=1e-6)


class TestMinStakeMip:
    @settings(max_examples=12, deadline=None)
    @given(
        degree=st.floats(1.0, 3.0),
        f=st.sampled_from([0.0, 1 / 3, 1 / 2, 2 / 3]),
        budget=st.floats(0.0, 2.0),
        with_base=st.booleans(),
    )
    def test_exact_infimum_and_homogeneous(self, degree, f, budget, with_base):
        def template(c):
            base = dict(base_prize=10.0 * c, base_threshold=0.5) if with_base else {}
            return SweepTemplate(3, 3, 1 / 3, prize=1.0 * c, **base)

        stake = min_stake_mip(template(1), degree, budget, f)
        scaled = min_stake_mip(template(3), degree, 3 * budget, f)
        net_at = lambda s: template(1).build_network(s, degree)
        if math.isnan(stake):
            assert math.isnan(scaled)
            assert oracle_attackable(net_at(1e6), budget, f)
            return
        assert oracle_attackable(net_at(stake), budget, f)
        assert not oracle_attackable(net_at(stake * (1 + 1e-6)), budget, f)
        assert scaled == pytest.approx(3 * stake, rel=1e-9)


class TestCsv:
    def test_deterministic_output(self, tmp_path):
        table = sweep_min_stake_security(4, 4, [0.5], [1.0, 2.0])
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(table, first)
        write_csv(table, second)
        assert first.read_text() == second.read_text()

    def test_format(self, tmp_path):
        table = Table(
            columns=["restaking_degree", "min_stake_threshold_0.50"],
            rows=[[1.0, 2.0], [2.0, float("nan")]],
        )
        path = tmp_path / "t.csv"
        write_csv(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "restaking_degree,min_stake_threshold_0.50"
        assert lines[1] == "1.000000,2.000000"
        assert lines[2] == "2.000000,nan"


def test_degree_grid_bounds():
    grid = degree_grid(3, 0.5)
    assert grid[0] == 1.0 and grid[-1] == 3.0
    assert len(grid) == 5
