"""Verified spot-market provisioning: certify ``P(deadline met)``.

The spot market (:mod:`repro.cloud.spot`) sells reclaimable capacity at
a steep discount; the deadline-guard runtime (:mod:`repro.runtime`) can
survive reclaims by rescuing onto fresh capacity.  What neither layer
answers on its own is the *planning* question: is a given spot fleet —
together with the guard's rescue policy — actually likely enough to meet
the Solvency II deadline?  This package answers it by model checking:

- :mod:`repro.spot.mdp` — the guarded run as a finite-horizon Markov
  decision process (states: time-to-``Tmax`` bucket x remaining-work
  bucket x fleet composition; transitions from the calibrated reclaim
  hazard and the performance model) solved exactly by backward value
  iteration.
- :mod:`repro.spot.verify` — the verification gate.
  :class:`~repro.spot.verify.SpotPlanVerifier` refuses to commit a fleet
  whose best policy cannot certify ``P(deadline met) >= p`` and
  escalates along the ladder spot (with every rescue the guard has,
  on-demand included) -> pure on-demand, returning a
  :class:`~repro.spot.verify.DeadlineCertificate` either way.
- :mod:`repro.spot.bench` — ``repro bench spot``: a seeded sweep of
  certified versus point-prediction spot plans producing the
  cost-vs-``P(deadline)`` frontier.
"""

from repro.spot.mdp import ACTIONS, DeadlineMdp, MdpSolution
from repro.spot.verify import (
    CertificationError,
    DeadlineCertificate,
    SpotPlanVerifier,
    VerifiedPlan,
)

__all__ = [
    "ACTIONS",
    "DeadlineMdp",
    "MdpSolution",
    "CertificationError",
    "DeadlineCertificate",
    "SpotPlanVerifier",
    "VerifiedPlan",
]
