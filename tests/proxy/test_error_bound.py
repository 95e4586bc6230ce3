"""Statistical acceptance tests for the proxy tier (satellite harness).

The headline claim of the proxy tier is an *error bound*: at any seed,
the proxy SCR stays within the validation gate's tolerance of the exact
tier's SCR — either because the gate passed and the tail refinement
pinned the quantile, or because the gate breached and the tier fell
back to exact valuation.  The seed sweep checks the bound across 20
independent outer samples; the underfit fixture checks the fallback
half of the contract.
"""

import numpy as np
import pytest

from repro.montecarlo.scr import SCRCalculator
from repro.proxy.engine import ProxySCREngine

from tests.proxy.conftest import ConstantValuator

N_OUTER = 512
N_INNER = 64
N_TRAIN = 48
N_VALIDATION = 16
TOLERANCE = 0.08
STEPS = 4
SEEDS = tuple(range(20))


def _proxy_engine(make_engine, valuator="lsmc", tolerance=TOLERANCE):
    # Hardened tail refinement (see ProxySCREngine docs): at 512 outer
    # scenarios the quantile rests on a handful of order statistics, so
    # the refined set must cover the whole plausible tail.
    return ProxySCREngine(
        make_engine(),
        valuator=valuator,
        n_train=N_TRAIN,
        n_validation=N_VALIDATION,
        tolerance=tolerance,
        tail_z=6.0,
        tail_floor_multiple=8.0,
    )


@pytest.mark.tier2
class TestErrorBoundSeedSweep:
    def test_proxy_scr_within_gate_bound_across_seeds(self, make_engine):
        calc = SCRCalculator()
        engine = make_engine()
        errors = []
        fallbacks = 0
        for seed in SEEDS:
            exact = engine.run(N_OUTER, N_INNER, rng=seed, steps_per_year=STEPS)
            result = _proxy_engine(make_engine).run(
                N_OUTER, N_INNER, rng=seed, steps_per_year=STEPS
            )
            scr_exact = calc.from_nested(exact).scr
            scr_proxy = calc.from_nested(result.nested).scr
            assert scr_exact > 0.0
            rel_error = abs(scr_proxy - scr_exact) / scr_exact
            errors.append(rel_error)
            fallbacks += result.fell_back
            assert rel_error <= TOLERANCE, (
                f"seed {seed}: proxy SCR error {rel_error:.3%} exceeds the "
                f"gate bound {TOLERANCE:.0%} "
                f"(fell_back={result.fell_back}, gate={result.gate.describe()})"
            )
        # The bound must be earned by the proxy, not by constant
        # fallback: a healthy share of seeds must accept the proxy.
        # (The gate is deliberately conservative — the held-out 99.5%
        # quantile is a noisy statistic at 16 validation scenarios, so
        # a sizeable minority of seeds falls back by design.)
        assert fallbacks <= 3 * len(SEEDS) // 4, (
            f"{fallbacks}/{len(SEEDS)} seeds fell back to exact valuation"
        )
        # Tail refinement pins the hybrid quantile to the exact tier's:
        # the median seed should sit far inside the bound.
        assert float(np.median(errors)) <= TOLERANCE / 4


@pytest.mark.nightly
class TestExtendedSeedSweep:
    """50 extra seeds, nightly only — the wide net for rare gate escapes."""

    def test_error_bound_holds_on_fresh_seeds(self, make_engine):
        calc = SCRCalculator()
        engine = make_engine()
        for seed in range(100, 150):
            exact = engine.run(N_OUTER, N_INNER, rng=seed, steps_per_year=STEPS)
            result = _proxy_engine(make_engine).run(
                N_OUTER, N_INNER, rng=seed, steps_per_year=STEPS
            )
            scr_exact = calc.from_nested(exact).scr
            scr_proxy = calc.from_nested(result.nested).scr
            rel_error = abs(scr_proxy - scr_exact) / scr_exact
            assert rel_error <= TOLERANCE, (
                f"seed {seed}: {rel_error:.3%} > {TOLERANCE:.0%} "
                f"(gate={result.gate.describe()})"
            )


class TestUnderfitProxyTripsTheGate:
    def test_gate_breaches_and_falls_back_bitwise(self, make_engine):
        engine = make_engine()
        result = _proxy_engine(
            make_engine, valuator=ConstantValuator(), tolerance=0.01
        ).run(N_OUTER, N_INNER, rng=0, steps_per_year=STEPS)
        assert result.gate.breached
        assert result.fell_back
        assert result.proxy_name == "constant"
        exact = engine.run(N_OUTER, N_INNER, rng=0, steps_per_year=STEPS)
        assert np.array_equal(
            result.nested.outer_values, exact.outer_values
        )
        scr = SCRCalculator()
        assert (
            scr.from_nested(result.nested).scr == scr.from_nested(exact).scr
        )
