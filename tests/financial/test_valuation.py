"""Tests for liability valuation (decrement tables + pathwise values)."""

import numpy as np
import pytest

from repro.financial.contracts import ContractKind, PolicyContract
from repro.financial.valuation import LiabilityValuator
from repro.stochastic.lapse import LapseModel
from repro.stochastic.mortality import GompertzMakeham


@pytest.fixture
def valuator():
    return LiabilityValuator(GompertzMakeham(), LapseModel(base_rate=0.03))


def contract(**overrides):
    base = dict(
        kind=ContractKind.PURE_ENDOWMENT, age=50, gender="M", term=5,
        insured_sum=1000.0, participation=0.8, technical_rate=0.02,
    )
    base.update(overrides)
    return PolicyContract(**base)


class TestDecrementTable:
    def test_consistency(self, valuator):
        table = valuator.decrement_table(contract(term=20))
        table.check_consistency()

    def test_in_force_monotone_decreasing(self, valuator):
        table = valuator.decrement_table(contract(term=15))
        assert np.all(np.diff(table.in_force) < 0)

    def test_no_lapse_in_maturity_year(self, valuator):
        table = valuator.decrement_table(contract(term=7))
        assert table.lapse[-1] == 0.0
        assert table.lapse[0] > 0.0

    def test_zero_lapse_model(self):
        valuator = LiabilityValuator(GompertzMakeham(),
                                     LapseModel(base_rate=0.0,
                                                dynamic_sensitivity=0.0))
        table = valuator.decrement_table(contract(term=10))
        np.testing.assert_allclose(table.lapse, 0.0)

    def test_death_probabilities_increase_with_age(self, valuator):
        table = valuator.decrement_table(contract(age=70, term=20))
        # Hazard rises fast enough at 70+ that yearly death mass
        # increases initially despite the shrinking in-force base.
        assert table.death[5] > table.death[0]


class TestCashFlows:
    def test_pure_endowment_single_flow_at_maturity(self):
        valuator = LiabilityValuator(
            GompertzMakeham(), LapseModel(base_rate=0.0, dynamic_sensitivity=0.0)
        )
        c = contract(term=3)
        credited = np.zeros((4, 3))  # guarantee only
        flows = valuator.cash_flows(c, credited)
        assert flows.flows.shape == (4, 3)
        np.testing.assert_allclose(flows.flows[:, :-1], 0.0)
        table = valuator.decrement_table(c)
        # At zero fund return the insured sum stays C0.
        np.testing.assert_allclose(
            flows.flows[:, -1], 1000.0 * table.in_force[-1]
        )

    def test_term_contract_pays_only_on_death(self, valuator):
        c = contract(kind=ContractKind.TERM, term=4)
        credited = np.zeros((2, 4))
        flows = valuator.cash_flows(c, credited)
        table = valuator.decrement_table(c)
        expected = 1000.0 * table.death + 1000.0 * 0.98 * table.lapse
        np.testing.assert_allclose(flows.flows[0], expected)

    def test_annuity_pays_while_in_force(self, valuator):
        c = contract(kind=ContractKind.WHOLE_LIFE_ANNUITY, term=5,
                     insured_sum=100.0)
        credited = np.zeros((1, 5))
        flows = valuator.cash_flows(c, credited)
        assert np.all(flows.flows[0] > 0)

    def test_multiplicity_scales_linearly(self, valuator):
        c1 = contract(multiplicity=1)
        c10 = contract(multiplicity=10)
        credited = np.full((3, 5), 0.04)
        f1 = valuator.cash_flows(c1, credited).flows
        f10 = valuator.cash_flows(c10, credited).flows
        np.testing.assert_allclose(f10, 10.0 * f1)

    def test_higher_returns_higher_flows(self, valuator):
        c = contract(term=10)
        low = valuator.cash_flows(c, np.full((1, 10), 0.0)).flows.sum()
        high = valuator.cash_flows(c, np.full((1, 10), 0.10)).flows.sum()
        assert high > low

    def test_extra_years_ignored(self, valuator):
        c = contract(term=3)
        short = valuator.cash_flows(c, np.full((2, 3), 0.05)).flows
        long = valuator.cash_flows(c, np.full((2, 8), 0.05)).flows
        np.testing.assert_allclose(short, long)

    def test_too_few_years_rejected(self, valuator):
        with pytest.raises(ValueError, match="years of returns"):
            valuator.cash_flows(contract(term=5), np.zeros((1, 3)))

    def test_wrong_ndim_rejected(self, valuator):
        with pytest.raises(ValueError, match="n_paths"):
            valuator.cash_flows(contract(term=5), np.zeros(5))

    def test_mismatched_decrement_table_rejected(self, valuator):
        table = valuator.decrement_table(contract(term=3))
        with pytest.raises(ValueError, match="decrement table"):
            valuator.cash_flows(contract(term=5), np.zeros((1, 5)), table)


class TestPresentValue:
    def test_guaranteed_value_with_flat_discount(self):
        # With zero lapse/mortality ~ 0 at young ages and zero returns,
        # the PV approaches C0 * df(T).
        valuator = LiabilityValuator(
            GompertzMakeham(a=1e-12, b=1e-12),
            LapseModel(base_rate=0.0, dynamic_sensitivity=0.0),
        )
        c = contract(age=30, term=5)
        credited = np.zeros((1, 5))
        df = np.concatenate([[1.0], np.exp(-0.03 * np.arange(1, 6))])[np.newaxis, :]
        pv = valuator.value(c, credited, df)
        assert pv[0] == pytest.approx(1000.0 * np.exp(-0.15), rel=1e-6)

    def test_discount_column_mismatch_rejected(self, valuator):
        c = contract(term=5)
        flows = valuator.cash_flows(c, np.zeros((1, 5)))
        with pytest.raises(ValueError, match="discount columns"):
            flows.present_value(np.ones((1, 3)))

    def test_wide_discount_matrix_truncated(self, valuator):
        c = contract(term=3)
        credited = np.zeros((2, 3))
        df = np.ones((2, 10))
        pv = valuator.value(c, credited, df)
        assert pv.shape == (2,)

    def test_value_positive_and_below_nominal(self, valuator):
        c = contract(term=10)
        credited = np.full((5, 10), 0.03)
        df = np.exp(-0.02 * np.arange(11))[np.newaxis, :].repeat(5, axis=0)
        pv = valuator.value(c, credited, df)
        assert np.all(pv > 0)


class TestVectorizedDecrementTable:
    def scalar_reference(self, valuator, c):
        """Straightforward per-year Python recursion (the pre-vectorization
        implementation) used as the equivalence oracle."""
        term = c.term
        in_force = np.empty(term)
        death = np.empty(term)
        lapse = np.empty(term)
        alive = 1.0
        lapse_rate = float(np.asarray(valuator.lapse.annual_rate()))
        for t in range(1, term + 1):
            age = c.age + t - 1
            q = float(valuator.mortality.death_probability(age, 1.0))
            l = 0.0 if t == term else lapse_rate
            death[t - 1] = alive * q
            lapse[t - 1] = alive * (1.0 - q) * l
            alive = alive - death[t - 1] - lapse[t - 1]
            in_force[t - 1] = alive
        from repro.financial.valuation import DecrementTable

        return DecrementTable(in_force=in_force, death=death, lapse=lapse)

    @pytest.mark.parametrize("term,age", [(1, 40), (5, 50), (25, 62)])
    def test_matches_scalar_recursion(self, valuator, term, age):
        c = contract(term=term, age=age)
        table = valuator.decrement_table(c)
        reference = self.scalar_reference(valuator, c)
        np.testing.assert_allclose(table.in_force, reference.in_force,
                                   rtol=1e-12)
        np.testing.assert_allclose(table.death, reference.death, rtol=1e-12)
        np.testing.assert_allclose(table.lapse, reference.lapse, rtol=1e-12)

    def test_life_table_model_matches_scalar_recursion(self):
        from repro.stochastic.mortality import LifeTable

        valuator = LiabilityValuator(
            LifeTable.synthetic_italian("F"), LapseModel(base_rate=0.04)
        )
        c = contract(term=12, age=55)
        table = valuator.decrement_table(c)
        reference = self.scalar_reference(valuator, c)
        np.testing.assert_allclose(table.in_force, reference.in_force,
                                   rtol=1e-12)


class TestDecrementTableCache:
    def make_cache(self, **kwargs):
        from repro.financial.valuation import DecrementTableCache

        return DecrementTableCache(**kwargs)

    def test_hit_and_miss_counters(self):
        cache = self.make_cache()
        valuator = LiabilityValuator(
            GompertzMakeham(), LapseModel(base_rate=0.03), cache=cache
        )
        c = contract(term=6)
        first = valuator.decrement_table(c)
        second = valuator.decrement_table(c)
        assert second is first
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)

    def test_key_distinguishes_shocked_models(self):
        cache = self.make_cache()
        c = contract(term=6)
        base = GompertzMakeham()
        LiabilityValuator(base, LapseModel(base_rate=0.03),
                          cache=cache).decrement_table(c)
        LiabilityValuator(base.shocked(0.1), LapseModel(base_rate=0.03),
                          cache=cache).decrement_table(c)
        assert len(cache) == 2
        assert cache.hits == 0

    def test_equal_parameter_instances_share_entries(self):
        cache = self.make_cache()
        c = contract(term=6)
        LiabilityValuator(GompertzMakeham(), LapseModel(base_rate=0.03),
                          cache=cache).decrement_table(c)
        LiabilityValuator(GompertzMakeham(), LapseModel(base_rate=0.03),
                          cache=cache).decrement_table(c)
        assert (cache.hits, len(cache)) == (1, 1)

    def test_uncacheable_mortality_bypasses_cache(self):
        class Opaque(GompertzMakeham):
            def cache_key(self):
                return None

        cache = self.make_cache()
        valuator = LiabilityValuator(Opaque(), LapseModel(base_rate=0.03),
                                     cache=cache)
        valuator.decrement_table(contract(term=4))
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_bound_clears_wholesale(self):
        cache = self.make_cache(max_entries=2)
        base = GompertzMakeham()
        for shock in (0.0, 0.01, 0.02):
            LiabilityValuator(base.shocked(shock), LapseModel(base_rate=0.03),
                              cache=cache).decrement_table(contract(term=4))
        assert len(cache) <= 2

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            self.make_cache(max_entries=0)


class TestBatchedDecrementTable:
    def test_rows_bitwise_equal_to_per_scenario_tables(self):
        from repro.financial.valuation import batched_decrement_table

        base = GompertzMakeham()
        mortalities = [base.shocked(s) for s in (-0.04, 0.0, 0.03, 0.11)]
        lapses = [LapseModel(base_rate=r) for r in (0.02, 0.03, 0.05, 0.01)]
        c = contract(term=9)
        batch = batched_decrement_table(c, mortalities, lapses)
        assert batch.in_force.shape == (4, 9)
        for j, (m, l) in enumerate(zip(mortalities, lapses)):
            table = LiabilityValuator(m, l).decrement_table(c)
            np.testing.assert_array_equal(batch.in_force[j], table.in_force)
            np.testing.assert_array_equal(batch.death[j], table.death)
            np.testing.assert_array_equal(batch.lapse[j], table.lapse)

    def test_shared_mortality_path_bitwise_equal(self):
        from repro.financial.valuation import batched_decrement_table
        from repro.stochastic.mortality import LifeTable

        table_model = LifeTable.synthetic_italian("M")
        mortalities = [table_model] * 3
        lapses = [LapseModel(base_rate=r) for r in (0.02, 0.04, 0.06)]
        c = contract(term=7, age=48)
        batch = batched_decrement_table(c, mortalities, lapses)
        for j, l in enumerate(lapses):
            table = LiabilityValuator(table_model, l).decrement_table(c)
            np.testing.assert_array_equal(batch.death[j], table.death)
            np.testing.assert_array_equal(batch.lapse[j], table.lapse)

    def test_identical_models_use_cache(self):
        from repro.financial.valuation import (
            DecrementTableCache,
            batched_decrement_table,
        )

        cache = DecrementTableCache()
        mortalities = [GompertzMakeham()] * 5
        lapses = [LapseModel(base_rate=0.03)] * 5
        c = contract(term=6)
        first = batched_decrement_table(c, mortalities, lapses, cache=cache)
        second = batched_decrement_table(c, mortalities, lapses, cache=cache)
        assert first.in_force.shape == (5, 6)
        assert cache.hits == 1 and cache.misses == 1
        np.testing.assert_array_equal(first.death, second.death)

    def test_mixed_model_types_fall_back_to_stacking(self):
        from repro.financial.valuation import batched_decrement_table
        from repro.stochastic.mortality import LifeTable

        mortalities = [GompertzMakeham(), LifeTable.synthetic_italian("M")]
        lapses = [LapseModel(base_rate=0.02), LapseModel(base_rate=0.05)]
        c = contract(term=5)
        batch = batched_decrement_table(c, mortalities, lapses)
        for j, (m, l) in enumerate(zip(mortalities, lapses)):
            table = LiabilityValuator(m, l).decrement_table(c)
            np.testing.assert_array_equal(batch.in_force[j], table.in_force)

    def test_rejects_mismatched_or_empty_inputs(self):
        from repro.financial.valuation import batched_decrement_table

        with pytest.raises(ValueError):
            batched_decrement_table(
                contract(term=3), [GompertzMakeham()], []
            )
        with pytest.raises(ValueError):
            batched_decrement_table(contract(term=3), [], [])


class TestBatchedCashFlows:
    def test_per_path_decrement_matrices_match_scalar_rows(self, valuator):
        # A (n_paths, term) decrement matrix values each row with its own
        # table — the stacked form the batched kernel feeds cash_flows.
        from repro.financial.valuation import DecrementTable

        c = contract(kind=ContractKind.ENDOWMENT, term=4)
        rng = np.random.default_rng(5)
        credited = rng.normal(0.02, 0.01, size=(3, 4))
        base = valuator.decrement_table(c)
        shocked = LiabilityValuator(
            GompertzMakeham().shocked(0.2), LapseModel(base_rate=0.06)
        ).decrement_table(c)
        stacked = DecrementTable(
            in_force=np.vstack([base.in_force, shocked.in_force,
                                base.in_force]),
            death=np.vstack([base.death, shocked.death, base.death]),
            lapse=np.vstack([base.lapse, shocked.lapse, base.lapse]),
        )
        batched = valuator.cash_flows(c, credited, decrements=stacked)
        row_tables = [base, shocked, base]
        for j, table in enumerate(row_tables):
            single = valuator.cash_flows(
                c, credited[j : j + 1], decrements=table
            )
            np.testing.assert_array_equal(batched.flows[j], single.flows[0])
