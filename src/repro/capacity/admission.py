"""Incremental admission state shared by the capacity loops.

Greedy capacity, the local-search estimator (its construction and its
greedy completion) and repeated maximization all grow a feasible set
one candidate at a time, with one pass: :meth:`Admission.fill`.
Admitting candidate ``i`` must keep every admitted link ``j`` within
budget, i.e. no ``incoming[j] + a[i, j] > threshold``.  Gathering
``incoming[admitted]`` and ``a[i, admitted]`` through a boolean mask for
every candidate costs two ``O(n)`` scans and most of the loop's
interpreter time at ``n ≈ 100``.

:class:`Admission` keeps the admitted columns ``a[:, admitted]`` side
by side instead, so row ``i`` of them is one contiguous slice, and
refreshes ``incoming[admitted]`` once per admission.  The fit test adds
the two into a preallocated buffer and compares the buffer's maximum
with the threshold.  The compared floats are the same for the same
``j``; only their order in memory (admission order instead of index
order) differs, which a maximum ignores.  ``np.fmax`` skips NaN the way
``>`` does, so the test is exactly ``any(buffer > threshold)``, for
NaN and ``inf`` too.  Storage is ``n × capacity`` with the capacity
doubling from 16 as the admitted set grows, capped at ``n``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Admission"]

_MIN_CAPACITY = 16

_largest = np.fmax.reduce


class Admission:
    """An admitted link set, its incoming affectance and its columns.

    Parameters
    ----------
    a:
        The ``(n, n)`` affectance matrix ``a[j, i]`` (sender ``j`` on
        link ``i``).
    threshold:
        Budget on every admitted link's incoming affectance.
    members:
        Links already admitted, in admission order.
    incoming:
        ``Σ_{j ∈ members} a(j, i)`` for all ``i``; zeros by default.
        The array is owned by this object and updated in place.
    """

    __slots__ = ("a", "threshold", "incoming", "members", "_cols", "_idx", "_at", "_buf")

    def __init__(self, a: np.ndarray, threshold: float, members=(), incoming=None):
        n = a.shape[0]
        self.a = a
        self.threshold = threshold
        self.incoming = np.zeros(n, dtype=np.float64) if incoming is None else incoming
        self.members: "list[int]" = list(members)
        k = len(self.members)
        cap = min(n, max(_MIN_CAPACITY, 2 * k))
        self._idx = np.empty(cap, dtype=np.intp)
        self._idx[:k] = self.members
        self._cols = np.empty((n, cap), dtype=np.float64)
        self._cols[:, :k] = a[:, self._idx[:k]]
        self._buf = np.empty(cap, dtype=np.float64)
        self._at = self.incoming[self._idx[:k]]

    @property
    def admitted(self) -> np.ndarray:
        """Admitted link indices in admission order (a view)."""
        return self._idx[: len(self.members)]

    def over(self, i) -> np.ndarray:
        """``incoming[j] + a[i, j] > threshold`` for every admitted ``j``,
        in admission order: the links that admitting ``i`` would push
        over budget.  An index array ``i`` gives one row per link."""
        return self._at + self._cols[i, : len(self.members)] > self.threshold

    def fill(self, candidates) -> None:
        """Admit each candidate, in the given order, whose incoming
        affectance is finite and within budget and that keeps every
        admitted link within budget.

        Affectances are non-negative, so ``incoming[i] <= threshold``
        is the first test: NaN and ``inf`` fail it."""
        threshold = self.threshold
        incoming = self.incoming
        k = len(self.members)
        cols, buf, at = self._cols[:, :k], self._buf[:k], self._at
        for i in np.asarray(candidates, dtype=np.intp).tolist():
            if not incoming.item(i) <= threshold:
                continue
            if k:
                np.add(at, cols[i], out=buf)
                if _largest(buf) > threshold:
                    continue
            self.admit(i)
            k += 1
            cols, buf, at = self._cols[:, :k], self._buf[:k], self._at

    def admit(self, i: int) -> None:
        """Add link ``i`` to the set."""
        k = len(self.members)
        if k == self._idx.size:
            self._grow()
        self._idx[k] = i
        self._cols[:, k] = self.a[:, i]
        self.members.append(i)
        self.incoming += self.a[i, :]
        self._at = self.incoming[self._idx[: k + 1]]

    def _grow(self) -> None:
        k = len(self.members)
        cap = min(self.a.shape[0], 2 * k)
        idx = np.empty(cap, dtype=np.intp)
        idx[:k] = self._idx
        cols = np.empty((self.a.shape[0], cap), dtype=np.float64)
        cols[:, :k] = self._cols
        self._idx, self._cols, self._buf = idx, cols, np.empty(cap, dtype=np.float64)
