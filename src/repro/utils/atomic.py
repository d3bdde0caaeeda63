"""Atomic file writes — temp file in the target directory + ``os.replace``.

Every on-disk artifact of a run (instance files, journal records,
``summary.json``) is written through these helpers so an interrupted
process never leaves a truncated or half-written file behind: readers
see either the previous complete content or the new complete content,
never a prefix.  ``os.replace`` is atomic on POSIX and Windows provided
source and destination live on the same filesystem, which writing the
temporary alongside the target guarantees.

:func:`exhaustion_kind` is the shared classifier for the *resource
exhaustion* family of ``OSError`` — full disk, quota, read-only
filesystem — which callers that can degrade (journal checkpoints,
telemetry, the dispatch queue) treat as "warn and carry on" rather than
as fatal: the computation is still correct, it is merely no longer
being checkpointed.
"""

from __future__ import annotations

import errno
import os
import tempfile
from pathlib import Path

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "exhaustion_kind",
]

#: ``errno`` values that mean the filesystem ran out of a resource (or
#: became read-only) rather than the write being wrong: these are the
#: failures a best-effort writer degrades on instead of crashing.
_EXHAUSTION_ERRNOS = {
    errno.ENOSPC: "no-space",
    errno.EDQUOT: "quota-exceeded",
    errno.EROFS: "read-only-filesystem",
    errno.EMFILE: "fd-exhausted",
    errno.ENFILE: "fd-exhausted",
    errno.ENOMEM: "no-memory",
}


def exhaustion_kind(exc: BaseException) -> "str | None":
    """Classify ``exc`` as resource exhaustion, or ``None``.

    Returns a short kind string (``"no-space"``, ``"quota-exceeded"``,
    ``"read-only-filesystem"``, ``"fd-exhausted"``, ``"no-memory"``)
    when the exception is an :class:`OSError` of the exhaustion family —
    the failures where retrying the same write cannot help but the run
    itself can continue un-checkpointed.
    """
    if not isinstance(exc, OSError):
        return None
    return _EXHAUSTION_ERRNOS.get(exc.errno)


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (write-then-rename)."""
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically (write-then-rename)."""
    atomic_write_bytes(path, text.encode(encoding))
