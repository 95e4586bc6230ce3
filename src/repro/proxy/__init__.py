"""Proxy-accelerated SCR tiers.

The nested-MC inner loop dominates the cost of the whole pipeline.  This
package replaces it with trained proxies, following the two families the
related work establishes (Hejazi & Jackson's neural-network valuator and
the Krah/Nikolic/Korn ML-LSMC regression family):

- :mod:`repro.proxy.base` — the :class:`ProxyValuator` protocol and the
  ``proxy_from`` factory;
- :mod:`repro.proxy.lsmc_proxy` / :mod:`repro.proxy.mlp_proxy` — the two
  shipped valuators (orthonormal-polynomial regression, MLP);
- :mod:`repro.proxy.gate` — the :class:`ValidationGate` holding out
  exact scenarios and falling back to exact valuation on breach;
- :mod:`repro.proxy.engine` — :class:`ProxySCREngine`, the proxy *tier*:
  exact inner simulations on a small budget, proxy everywhere else;
- :mod:`repro.proxy.costs` — tier cost/error models for the planner.

The SCR tier axis is ``exact | proxy``.  Both tiers are deterministic
at fixed ``(seed, budget, tier)`` and bit-reproducible across execution
backends, because all exact inner simulations ride the
scenario-index-keyed seeding contract of :mod:`repro.montecarlo.nested`.
"""

from repro.proxy.base import ProxyValuator, proxy_from
from repro.proxy.engine import ProxyResult, ProxySCREngine
from repro.proxy.gate import GateReport, ValidationGate
from repro.proxy.lsmc_proxy import LSMCProxyValuator
from repro.proxy.mlp_proxy import MLPProxyValuator

__all__ = [
    "GateReport",
    "LSMCProxyValuator",
    "MLPProxyValuator",
    "ProxyResult",
    "ProxySCREngine",
    "ProxyValuator",
    "ValidationGate",
    "proxy_from",
]
