"""Golden SCR corpus: pinned tier outputs on a reference case.

The corpus pins the SCR of every tier (exact / proxy) at two seeds on a
small reference portfolio.  The exact tier is pinned *bitwise* (stored
as ``float.hex``) — it is pure deterministic arithmetic, and any bit
drift means the determinism contract broke.  The proxy tier is pinned
within a tight relative tolerance: its values route through
least-squares solves whose last bits may legitimately differ across
BLAS builds.

Regenerate with ``python -m tests.golden --update`` (and commit the
diff); CI refuses a silently drifted corpus via
``python -m tests.golden --check``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.financial.contracts import ContractKind, PolicyContract
from repro.financial.segregated_fund import SegregatedFund
from repro.montecarlo.nested import NestedMonteCarloEngine
from repro.montecarlo.scr import SCRCalculator
from repro.proxy.engine import ProxySCREngine
from repro.stochastic.scenario import RiskDriverSpec

GOLDEN_PATH = Path(__file__).with_name("golden_scr.json")

#: The corpus grid.
TIERS = ("exact", "proxy")
SEEDS = (0, 7)
#: Backends every case must reproduce on (``--check`` and the pytest
#: corpus test recompute each case per backend).
BACKENDS = ("serial", "batched", "process:2")

#: Problem size: small enough that the full grid recomputes in seconds.
N_OUTER = 48
N_INNER = 8
STEPS_PER_YEAR = 2

#: Bitwise for the exact tier; relative tolerance for the proxy tier
#: (LAPACK least-squares last-bit drift across builds).
PROXY_REL_TOL = 1e-9


def _portfolio() -> tuple[RiskDriverSpec, SegregatedFund, list[PolicyContract]]:
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


def compute_scr(tier: str, seed: int, backend: str | None = None) -> float:
    """The corpus value of one case: the tier's SCR at the given seed."""
    spec, fund, contracts = _portfolio()
    engine = NestedMonteCarloEngine(spec, fund, contracts, backend=backend)
    if tier == "exact":
        nested = engine.run(
            N_OUTER, N_INNER, rng=seed, steps_per_year=STEPS_PER_YEAR
        )
        return float(SCRCalculator().from_nested(nested).scr)
    if tier == "proxy":
        result = ProxySCREngine(
            engine, n_train=16, n_validation=8, tolerance=0.5,
            tail_z=6.0, tail_floor_multiple=8.0,
        ).run(N_OUTER, N_INNER, rng=seed, steps_per_year=STEPS_PER_YEAR)
        return float(SCRCalculator().from_nested(result.nested).scr)
    raise ValueError(f"unknown tier {tier!r}")


def case_key(tier: str, seed: int) -> str:
    return f"{tier}/seed{seed}"


def compute_corpus(backend: str | None = None) -> dict[str, dict[str, Any]]:
    """Every case of the grid, on one backend."""
    corpus: dict[str, dict[str, Any]] = {}
    for tier in TIERS:
        for seed in SEEDS:
            scr = compute_scr(tier, seed, backend=backend)
            corpus[case_key(tier, seed)] = {
                "tier": tier,
                "seed": seed,
                "scr": scr,
                "scr_hex": float(scr).hex(),
            }
    return corpus


def load_corpus() -> dict[str, dict[str, Any]]:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def save_corpus(corpus: dict[str, dict[str, Any]]) -> None:
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n")


def compare_case(
    expected: dict[str, Any], observed: float
) -> str | None:
    """``None`` when ``observed`` matches the pinned case, else a message.

    The exact tier compares bit for bit via the stored hex encoding;
    the proxy tier compares within :data:`PROXY_REL_TOL`.
    """
    if expected["tier"] == "exact":
        if float(observed).hex() != expected["scr_hex"]:
            return (
                f"bitwise mismatch: pinned {expected['scr_hex']} "
                f"({expected['scr']}), observed {float(observed).hex()} "
                f"({observed})"
            )
        return None
    pinned = float(expected["scr"])
    scale = max(abs(pinned), 1.0)
    if abs(observed - pinned) / scale > PROXY_REL_TOL:
        return (
            f"tolerance mismatch: pinned {pinned}, observed {observed} "
            f"(rel tol {PROXY_REL_TOL})"
        )
    return None
