"""``repro bench proxy`` — exact vs proxy on one portfolio.

Runs the two SCR tiers at the same ``(seed, n_outer, n_inner)`` on the
reference portfolio and reports, per tier, the wall time, the exact
inner-simulation count (the unit runtime is proportional to), the SCR
and its relative error versus the exact tier.  The timings reuse the
:class:`~repro.exec.bench.BenchReport` trajectory machinery, so the CI
smoke job can gate on throughput drops with ``--against`` exactly like
the backend benchmark does; kernels are named per tier (``scr_exact`` /
``scr_proxy``) and the ``speedup`` column is quoted against the exact
tier.  Each tier is timed as the median of repeated runs
(:func:`~repro.exec.bench.median_wall`), so the gate compares typical
runs rather than one noisy sample.
"""

from __future__ import annotations

from repro.exec.bench import BenchReport, KernelTiming, median_wall
from repro.financial.contracts import ContractKind, PolicyContract
from repro.financial.segregated_fund import SegregatedFund
from repro.montecarlo.nested import NestedMonteCarloEngine
from repro.montecarlo.scr import SCRCalculator
from repro.proxy.engine import ProxySCREngine
from repro.proxy.lsmc_proxy import LSMCProxyValuator
from repro.stochastic.scenario import RiskDriverSpec

__all__ = ["reference_portfolio", "run_proxy_bench"]

def reference_portfolio() -> tuple[
    RiskDriverSpec, SegregatedFund, list[PolicyContract]
]:
    """The two-contract mixed portfolio the tier claims are quoted on."""
    contracts = [
        PolicyContract(
            ContractKind.PURE_ENDOWMENT, age=45, gender="M", term=10,
            insured_sum=100_000.0, multiplicity=20,
        ),
        PolicyContract(
            ContractKind.ENDOWMENT, age=50, gender="F", term=8,
            insured_sum=75_000.0, multiplicity=10,
        ),
    ]
    return RiskDriverSpec.standard(n_equities=2), SegregatedFund(), contracts


def run_proxy_bench(
    n_outer: int = 4096,
    n_inner: int = 256,
    n_train: int = 128,
    n_validation: int = 32,
    tolerance: float = 0.05,
    proxy_degree: int = 2,
    seed: int = 0,
    smoke: bool = False,
    backend: str | None = None,
    steps_per_year: int = 4,
) -> BenchReport:
    """Time and cross-check the two SCR tiers.

    ``smoke=True`` shrinks the run to seconds (and loosens the gate
    tolerance accordingly — at small sizes the held-out quantile is
    noisier); the full-size defaults are the reference configuration the
    README quotes: >= 10x fewer exact inner simulations at <= 0.5%
    relative SCR error.
    """
    if smoke:
        n_outer, n_inner = min(n_outer, 512), min(n_inner, 64)
        n_train, n_validation = min(n_train, 48), min(n_validation, 16)
        tolerance = max(tolerance, 0.08)
    spec, fund, contracts = reference_portfolio()
    engine = NestedMonteCarloEngine(spec, fund, contracts, backend=backend)
    calculator = SCRCalculator()

    wall_exact, nested = median_wall(
        lambda: engine.run(
            n_outer, n_inner, rng=seed, steps_per_year=steps_per_year
        )
    )
    scr_exact = calculator.from_nested(nested).scr

    proxy_engine = ProxySCREngine(
        engine,
        valuator=LSMCProxyValuator(degree=proxy_degree),
        n_train=n_train,
        n_validation=n_validation,
        tolerance=tolerance,
        proxy_seed=seed,
    )
    wall_proxy, proxy = median_wall(
        lambda: proxy_engine.run(
            n_outer, n_inner, rng=seed, steps_per_year=steps_per_year
        )
    )
    scr_proxy = calculator.from_nested(proxy.nested).scr

    def rel_error(scr: float) -> float:
        if scr_exact == 0.0:
            return float("nan")
        return abs(scr - scr_exact) / abs(scr_exact)

    report = BenchReport(
        config={
            "n_outer": n_outer,
            "n_inner": n_inner,
            "n_train": n_train,
            "n_validation": n_validation,
            "tolerance": tolerance,
            "proxy_degree": proxy_degree,
            "seed": seed,
            "smoke": smoke,
            "backend": engine.backend.name,
            "steps_per_year": steps_per_year,
            "scr_exact": scr_exact,
            "scr_proxy": scr_proxy,
            "proxy_rel_error": rel_error(scr_proxy),
            "proxy_savings_factor": proxy.savings_factor,
            "proxy_gate": proxy.gate.describe(),
            "proxy_fell_back": proxy.fell_back,
            "proxy_refined": int(len(proxy.refined_indices)),
        }
    )
    tiers = [
        ("scr_exact", wall_exact, n_outer * n_inner, scr_exact, None),
        (
            "scr_proxy",
            wall_proxy,
            proxy.n_exact_inner_sims,
            scr_proxy,
            wall_exact / wall_proxy if wall_proxy > 0.0 else None,
        ),
    ]
    for kernel, wall, work, checksum, speedup in tiers:
        report.timings.append(
            KernelTiming(
                kernel=kernel,
                backend=engine.backend.name,
                backend_detail=engine.backend.describe(),
                wall_seconds=wall,
                work_units=int(work),
                checksum=float(checksum),
                speedup_vs_serial=speedup,
            )
        )
    return report
