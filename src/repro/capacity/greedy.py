"""Affectance-greedy capacity maximization (style of [8] and [7]).

The single-slot algorithms of Goussevskaia–Wattenhofer–Halldórsson–Welzl
[8] (uniform powers) and Halldórsson–Mitra [7] (oblivious powers in
general metrics) share one skeleton: process links from short to long and
admit a link whenever the admitted set stays "comfortably" feasible.  We
express comfort through affectance: a candidate is admitted iff afterwards
every admitted link's incoming affectance is at most ``margin``.

* ``margin = 1`` admits greedily up to exact feasibility — the output is
  a maximal feasible set (good raw capacity, the variant used by the
  figure-level benches).
* ``margin = 1/2`` reproduces the slack the published analyses need for
  their constant approximation factor, and is the right setting when the
  output set must tolerate perturbation (e.g. before the Rayleigh
  transfer, or as ``OPT''``-style robust sets).

The power assignment enters only through ``instance`` — build the
instance with :class:`~repro.core.power.UniformPower` for [8] or
:class:`~repro.core.power.SquareRootPower` for [7].

Complexity: ``O(n²)`` arithmetic.  Each admission adds one row of the
affectance matrix to the incoming-affectance vector and caches the new
member's column; each candidate is then tested against the admitted set
only, with one buffered add and one maximum over the cached columns
(:meth:`~repro.capacity.admission.Admission.fill`, the admission pass
local search and repeated maximization share), so the interpreter cost
is a few array calls per candidate rather than two masked ``O(n)``
gathers.

:func:`greedy_planner` runs the signal-order greedy on candidate subsets
of one instance, as repeated maximization plans each round on the
links it has not served yet, without rebuilding the affectance matrix.
"""

from __future__ import annotations

import numpy as np

from repro.capacity.admission import Admission
from repro.core.affectance import affectance_matrix
from repro.core.sinr import SINRInstance
from repro.utils.validation import check_positive

__all__ = ["greedy_capacity", "greedy_planner"]


#: Float slack on the admission budget: sums that land on ``margin``
#: up to rounding are admitted.
_SLACK = 1e-12


def _viable(instance: SINRInstance, beta: float) -> np.ndarray:
    """Links that reach ``β`` against noise alone."""
    return instance.signal > beta * instance.noise


def _resolve_order(instance: SINRInstance, order, rng=None) -> np.ndarray:
    n = instance.n
    if isinstance(order, str):
        if order == "signal":
            # Strong own-signal first == short links first for oblivious
            # powers with tau < 1; well-defined for matrix instances too.
            return np.argsort(-instance.signal, kind="stable")
        if order == "random":
            if rng is None:
                raise ValueError("order='random' requires an rng")
            return rng.permutation(n)
        raise ValueError(f"unknown order {order!r}")
    idx = np.asarray(order, dtype=np.intp)
    if sorted(idx.tolist()) != list(range(n)):
        raise ValueError("explicit order must be a permutation of all links")
    return idx


def greedy_capacity(
    instance: SINRInstance,
    beta: float,
    *,
    margin: float = 1.0,
    order="signal",
    weights=None,
    rng=None,
) -> np.ndarray:
    """Greedy single-slot capacity maximization.

    Parameters
    ----------
    instance:
        Mean signals and noise (power assignment already applied).
    beta:
        SINR threshold.
    margin:
        Admission budget on incoming affectance, in ``(0, 1]``.  The
        admitted set is feasible for every value; smaller values leave
        robustness slack (see module docstring).
    order:
        ``"signal"`` (default — strongest own signal first, the
        short-links-first rule of [8]/[7]), ``"random"``, or an explicit
        permutation.
    weights:
        Optional finite, non-negative link weights; when given, links are
        processed by decreasing ``weight`` with the base order breaking
        ties, which turns the algorithm into its weighted variant.
    rng:
        Only used for ``order="random"``.

    Returns
    -------
    Sorted integer indices of the admitted (feasible) set.  Links that
    cannot reach ``β`` even alone are never admitted.
    """
    check_positive(beta, "beta")
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must lie in (0, 1], got {margin}")
    n = instance.n
    a = affectance_matrix(instance, beta, clamped=False)
    base_order = _resolve_order(instance, order, rng)
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,) or not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be a non-negative vector of length n")
        rank = np.empty(n, dtype=np.float64)
        rank[base_order] = np.arange(n)
        base_order = np.lexsort((rank, -w))

    # A link blocked by noise alone (S̄(i,i) <= βν) can never succeed;
    # its incoming affectances are +inf, so it is never a candidate.
    viable = _viable(instance, beta)
    adm = Admission(a, margin + _SLACK)
    adm.fill(base_order[viable[base_order]])
    return np.array(sorted(adm.members), dtype=np.intp)


def greedy_planner(instance: SINRInstance, beta: float):
    """The signal-order greedy at margin 1, over candidate subsets of one
    instance.

    Returns ``plan``: for an ascending index array ``candidates``,
    ``plan(candidates)`` equals
    ``candidates[greedy_capacity(instance.subinstance(candidates), beta)]``,
    the sorted global indices of the greedy set among the candidates.
    The affectance matrix and the signal order are built once, here.
    Affectance is elementwise in the gains, so a subinstance's matrix is
    this one's restricted to the candidates; and a stable sort of the
    candidates' signals is this instance's stable order with the other
    links left out.  Each call fills an empty
    :class:`~repro.capacity.admission.Admission` with the candidates in
    that order, so it costs no ``O(n²)`` step.
    """
    check_positive(beta, "beta")
    a = affectance_matrix(instance, beta, clamped=False)
    order = _resolve_order(instance, "signal")
    viable = _viable(instance, beta)
    pending = np.zeros(instance.n, dtype=bool)

    def plan(candidates) -> np.ndarray:
        pending[:] = False
        pending[candidates] = True
        adm = Admission(a, 1.0 + _SLACK)
        adm.fill(order[(pending & viable)[order]])
        return np.array(sorted(adm.members), dtype=np.intp)

    return plan
