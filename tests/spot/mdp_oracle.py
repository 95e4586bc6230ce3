"""Scalar backward induction: the reference for ``DeadlineMdp.solve``.

:func:`scalar_solve` is the state-by-state recursion the array solver
replaces: one Python loop over time steps, work buckets and fleets, one
interpolation per survivor count.  It reads the model ingredients
(progress, survival, survivor pmf) from the :class:`DeadlineMdp` it is
given, so the two solvers differ only in how they sweep the states.
It also returns every action the optimal policy takes anywhere in the
state space, so tests can tell whether a case exercised the rescue
branches at all.
"""

from __future__ import annotations

from repro.spot.mdp import DeadlineMdp, MdpSolution

_ON_DEMAND = 0


def _interp(mdp: DeadlineMdp, row, remaining: float, fleet: int) -> float:
    """Next-step value at a fractional remaining-work position,
    linearly interpolated between the bucket gridpoints."""
    if remaining <= 0.0:
        return 1.0
    if remaining >= mdp.n_work_buckets:
        return row[mdp.n_work_buckets][fleet]
    lower = int(remaining)
    frac = remaining - lower
    if frac == 0.0:
        return row[lower][fleet]
    return (1.0 - frac) * row[lower][fleet] + frac * row[lower + 1][fleet]


def scalar_solve(mdp: DeadlineMdp) -> tuple[MdpSolution, set[str]]:
    """``(solution, actions taken at any spot state)``."""
    n_steps = mdp.n_time_steps
    n_work = mdp.n_work_buckets
    n_fleets = mdp.n_nodes + 1
    progress = [mdp._progress_buckets(max(1, k)) for k in range(n_fleets)]
    progress[_ON_DEMAND] = mdp._progress_buckets(mdp.n_nodes)
    survival = (
        [mdp._step_survival(step) for step in range(n_steps)] if mdp.spot else []
    )
    value = [[1.0 if w == 0 else 0.0] * n_fleets for w in range(n_work + 1)]
    value_nr = [row[:] for row in value]
    first_action = "continue"
    actions: set[str] = set()
    for step in reversed(range(n_steps)):
        nxt, nxt_nr = value, value_nr
        value = [[0.0] * n_fleets for _ in range(n_work + 1)]
        value_nr = [[0.0] * n_fleets for _ in range(n_work + 1)]
        for w in range(n_work + 1):
            if w == 0:
                value[w] = [1.0] * n_fleets
                value_nr[w] = [1.0] * n_fleets
                continue
            r_od = w - progress[_ON_DEMAND]
            value[w][_ON_DEMAND] = _interp(mdp, nxt, r_od, _ON_DEMAND)
            value_nr[w][_ON_DEMAND] = _interp(mdp, nxt_nr, r_od, _ON_DEMAND)
            if not mdp.spot:
                continue
            for k in range(1, n_fleets):
                pmf = mdp._survivor_pmf(k, survival[step])
                cont = 0.0
                cont_nr = 0.0
                for j in range(1, k + 1):
                    r_j = w - progress[j]
                    cont += pmf[j] * _interp(mdp, nxt, r_j, j)
                    cont_nr += pmf[j] * _interp(mdp, nxt_nr, r_j, j)
                best, best_action = cont, "continue"
                rescue = nxt[w][mdp.n_nodes]
                if rescue > best:
                    best, best_action = rescue, "rescue_spot"
                rescue = nxt[w][_ON_DEMAND]
                if rescue > best:
                    best, best_action = rescue, "rescue_ondemand"
                value[w][k] = best
                value_nr[w][k] = cont_nr
                actions.add(best_action)
                if step == 0 and w == n_work and k == mdp.n_nodes:
                    first_action = best_action
    f0 = mdp.n_nodes if mdp.spot else _ON_DEMAND
    solution = MdpSolution(
        p_deadline=value[n_work][f0],
        p_no_rescue=value_nr[n_work][f0],
        initial_action=first_action if mdp.spot else "continue",
        n_time_steps=n_steps,
        n_work_buckets=n_work,
        n_states=(n_steps + 1) * (n_work + 1) * n_fleets,
        step_seconds=mdp.step_seconds,
    )
    return solution, actions
