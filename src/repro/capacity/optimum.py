"""Reference optima for capacity maximization.

Maximum feasible subset under SINR constraints is NP-hard (Goussevskaia
et al.), so the benchmarks need two reference points:

* :func:`optimal_capacity_bruteforce` — exact branch & bound.  Feasibility
  is downward closed (removing links only lowers interference), which
  makes the search a maximum-independent-set-style B&B with a
  cardinality bound; practical up to ``n ≈ 30`` on the paper's instances.
* :func:`local_search_capacity` — a multi-restart GRASP-style estimator
  for paper-scale instances (``n = 100``): randomized greedy construction
  followed by (1-out, 1-in)/(2-out, 1-in) improvement passes.  This is
  the estimate behind the "49.75 successful transmissions" statistic
  (E3); the paper does not state how its optimum was computed, so we
  report the estimator *and* the exact value on sizes where B&B is
  feasible to show the estimator's gap is negligible.
"""

from __future__ import annotations

import numpy as np

from repro.capacity.admission import Admission
from repro.core.affectance import affectance_matrix
from repro.core.sinr import SINRInstance
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["optimal_capacity_bruteforce", "local_search_capacity"]

_EPS = 1e-12
_THRESHOLD = 1.0 + _EPS


def _prepare(instance: SINRInstance, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped affectance and the mask of individually viable links.

    Columns of non-viable (noise-blocked) links hold ``+inf``; those links
    are never candidates, so their columns are zeroed to keep the
    incremental incoming-affectance arithmetic finite.
    """
    a = affectance_matrix(instance, beta, clamped=False)
    viable = instance.signal > beta * instance.noise
    if not viable.all():
        a[:, ~viable] = 0.0
    return a, viable


def _feasible_with(incoming: np.ndarray, members: np.ndarray, a: np.ndarray, k: int) -> bool:
    """Would adding link ``k`` keep the set (members mask) feasible?"""
    if incoming[k] > 1.0 + _EPS:
        return False
    if members.any() and np.any(incoming[members] + a[k, members] > 1.0 + _EPS):
        return False
    return True


def optimal_capacity_bruteforce(
    instance: SINRInstance, beta: float, *, weights=None, max_n: int = 32
) -> np.ndarray:
    """Exact maximum feasible subset by branch & bound.

    Parameters
    ----------
    instance, beta:
        The non-fading instance and threshold.
    weights:
        Optional finite, non-negative link weights; maximizes total weight instead
        of cardinality.
    max_n:
        Guard rail: refuse instances larger than this (the search is
        exponential in the worst case).

    Returns
    -------
    Sorted indices of an optimal feasible set.
    """
    check_positive(beta, "beta")
    n = instance.n
    if n > max_n:
        raise ValueError(
            f"branch & bound limited to n <= {max_n} links (got {n}); "
            "use local_search_capacity for larger instances"
        )
    a, viable = _prepare(instance, beta)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (n,) or not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be a non-negative vector of length n")

    # Order candidates by decreasing weight (ties: lower total outgoing
    # affectance first) so good solutions are found early and the bound
    # prunes hard.
    out_aff = np.where(np.isfinite(a), a, 1.0).sum(axis=1)
    order = np.lexsort((out_aff, -w))
    order = order[viable[order]]
    # Suffix weight sums for the optimistic bound.
    suffix = np.zeros(order.size + 1)
    suffix[:-1] = np.cumsum(w[order][::-1])[::-1]

    best_set: list[int] = []
    best_value = -1.0
    incoming = np.zeros(n, dtype=np.float64)
    members = np.zeros(n, dtype=bool)
    current: list[int] = []

    def recurse(pos: int, value: float) -> None:
        nonlocal best_set, best_value, incoming
        if value > best_value + _EPS:
            best_value = value
            best_set = current.copy()
        if pos >= order.size or value + suffix[pos] <= best_value + _EPS:
            return
        k = int(order[pos])
        if _feasible_with(incoming, members, a, k):
            # Branch 1: include k.
            current.append(k)
            members[k] = True
            incoming += a[k, :]
            recurse(pos + 1, value + w[k])
            incoming -= a[k, :]
            members[k] = False
            current.pop()
        # Branch 2: exclude k.
        recurse(pos + 1, value)

    recurse(0, 0.0)
    return np.array(sorted(best_set), dtype=np.intp)


def _best_response_refine(
    a: np.ndarray,
    viable: np.ndarray,
    members: np.ndarray,
    rng: np.random.Generator,
    *,
    max_rounds: int = 60,
) -> np.ndarray:
    """Best-response refinement of a transmit set (in place on a copy).

    Round-robin over links: link ``i`` joins iff it would meet its SINR
    constraint against the *current* senders (incoming unclamped
    affectance ≤ 1), and leaves otherwise.  A fixed point is a feasible
    set that is maximal in a strong sense (every outsider would fail).
    Unlike insertion-only greedy, links can *drop out* and unlock better
    configurations — empirically this closes most of the gap between
    greedy and the true optimum on the paper's workloads (it is exactly
    best-response dynamics of the Section-6 game restricted to the
    non-fading model).

    Returns the refined membership mask; falls back to the input if the
    dynamics fail to converge within ``max_rounds`` (possible in theory,
    never observed on these instances).
    """
    n = a.shape[0]
    viable_l = viable.tolist()
    mask = members.tolist()
    for _ in range(max_rounds):
        changed = False
        incoming = np.array(mask, dtype=np.float64) @ a  # Σ_{j in set} a(j, i)
        for i in rng.permutation(n).tolist():
            if not viable_l[i]:
                continue
            # a's diagonal is zero, so incoming[i] never counts i itself.
            want = incoming.item(i) <= _THRESHOLD
            if want != mask[i]:
                if want:
                    incoming += a[i, :]
                else:
                    incoming -= a[i, :]
                mask[i] = want
                changed = True
        if not changed:
            return np.array(mask, dtype=bool)
    return members


def _worth_visiting(cur: Admission, a: np.ndarray, links: np.ndarray) -> np.ndarray:
    """Which of ``links`` (none of them members) an improvement pass must
    visit against the current set, in one array expression.

    A visit inserts a link that fits outright, and tries an eviction
    for a link with one to three blockers: members it affects, or that
    it would push over budget.  Every other link is passed over without
    drawing from the generator, so skipping it changes nothing.  The
    tests are the per-link ones, on the same floats.
    """
    over = cur.over(links)
    fits = ~(cur.incoming[links] > _THRESHOLD) & ~over.any(axis=1)
    blockers = ((a[np.ix_(cur.admitted, links)] > _EPS).T | over).sum(axis=1)
    return fits | ((blockers >= 1) & (blockers <= 3))


def _improve(cur: Admission, members: np.ndarray, k: int, a, viable, gen):
    """One visit of an improvement pass to outside link ``k``: insert it
    if it fits, else evict one of its blockers and complete greedily.

    Returns the grown ``(set, membership)``, or ``None`` when the set
    stays as it was.  An insertion grows ``cur`` and ``members`` in
    place; an accepted eviction returns new ones.
    """
    over = cur.over(k)
    if not cur.incoming[k] > _THRESHOLD and not over.any():
        # Pure insertion (set was not maximal after an evict).
        cur.admit(k)
        members[k] = True
        return cur, members
    # Try evicting one member to make room for k, then re-fill greedily;
    # accept only strict growth.  Blockers are listed in admission order,
    # which gen.choice depends on.
    chosen = cur.admitted
    blockers = chosen[(a[chosen, k] > _EPS) | over]
    j = int(gen.choice(blockers))
    trial_incoming = cur.incoming - a[j, :]
    keep = chosen != j
    if trial_incoming[k] > _THRESHOLD or np.any(
        (trial_incoming[chosen] + a[k, chosen])[keep] > _THRESHOLD
    ):
        return None
    trial_members = members.copy()
    trial_members[j] = False
    trial_members[k] = True
    trial = Admission(
        a,
        _THRESHOLD,
        [x for x in cur.members if x != j] + [k],
        trial_incoming + a[k, :],
    )
    # Greedy completion, in index order.
    size = len(trial.members)
    trial.fill(np.flatnonzero(viable & ~trial_members))
    trial_members[trial.members[size:]] = True
    if len(trial.members) <= len(cur.members):
        return None
    return trial, trial_members


def local_search_capacity(
    instance: SINRInstance,
    beta: float,
    rng=None,
    *,
    restarts: int = 10,
    improvement_rounds: int = 4,
) -> np.ndarray:
    """Multi-restart local-search estimate of the maximum feasible subset.

    Each restart builds a maximal feasible set in a random order, then
    repeatedly attempts improving exchanges: for every excluded link,
    admit it after evicting at most one conflicting member when the swap
    strictly grows the set via later re-completion.  The best set across
    restarts is returned.

    This is an *estimator*: it lower-bounds the optimum (the output is
    always feasible) and on instances small enough for
    :func:`optimal_capacity_bruteforce` it matches the exact optimum in
    our test suite's instances; the E3 bench reports both.
    """
    check_positive(beta, "beta")
    if restarts <= 0:
        raise ValueError(f"restarts must be positive, got {restarts}")
    gen = as_generator(rng)
    n = instance.n
    a, viable = _prepare(instance, beta)

    # Restart 0 is deterministic short-links-first (the [8]-style order,
    # usually the strongest constructive heuristic); later restarts are
    # random orders for diversification.
    signal_order = np.argsort(-instance.signal, kind="stable")
    best: list[int] = []
    for restart in range(restarts):
        order = signal_order if restart == 0 else gen.permutation(n)
        cur = Admission(a, _THRESHOLD)
        cur.fill(order[viable[order]])
        members = np.zeros(n, dtype=bool)
        members[cur.members] = True
        # Best-response refinement: lets links drop out and re-enter,
        # escaping the insertion-only local optimum of the greedy pass.
        refined = _best_response_refine(a, viable, members, gen)
        if refined.sum() >= members.sum():
            members = refined
            cur = Admission(
                a,
                _THRESHOLD,
                np.flatnonzero(members).tolist(),
                members.astype(np.float64) @ a,
            )
        for _ in range(improvement_rounds):
            improved = False
            outside = np.flatnonzero(viable & ~members).tolist()
            gen.shuffle(outside)
            # Visit the pass's links in order, screening what is left of
            # it against the current set, and re-screening after every
            # change to the set.
            rest = np.array(outside, dtype=np.intp)
            while rest.size:
                rest = rest[~members[rest]]  # re-inserted earlier in this pass
                for pos in np.flatnonzero(_worth_visiting(cur, a, rest)).tolist():
                    grown = _improve(cur, members, int(rest[pos]), a, viable, gen)
                    if grown is not None:
                        cur, members = grown
                        improved = True
                        rest = rest[pos + 1 :]
                        break
                else:
                    break
            if not improved:
                break
        if len(cur.members) > len(best):
            best = cur.members
    return np.array(sorted(best), dtype=np.intp)
