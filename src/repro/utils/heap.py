"""Process heap policy: keep freed array temporaries mapped between calls.

The Monte-Carlo and Algorithm-1 kernels allocate the same 0.1–2 MB
NumPy temporaries on every call and free them on return.  glibc's
default policy gives the top of the heap back to the kernel as soon as
more than 128 KB lies free there, so the next call page-faults every
temporary in again: at paper scale E5 takes about 221k minor faults and
E17 about 427k.  :func:`apply_heap_policy` is applied once per process,
at the start of :func:`repro.cli.main`; forked pool and local dispatch
workers inherit it.
"""

from __future__ import annotations

import ctypes
import platform

__all__ = ["MMAP_THRESHOLD", "TOP_PAD", "apply_heap_policy"]

#: Blocks of at least this many bytes are mapped on their own and
#: unmapped when freed, so a rare huge temporary never pins heap memory.
MMAP_THRESHOLD = 4 << 20

#: Free bytes the heap keeps at its top when it grows or trims.
TOP_PAD = 64 << 20

# glibc's <malloc.h> parameter numbers.
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3


def apply_heap_policy() -> bool:
    """Set glibc's ``M_MMAP_THRESHOLD`` and ``M_TOP_PAD``; True on success.

    ``M_TOP_PAD`` is what keeps freed temporaries mapped: a trim leaves
    that many free bytes at the heap top.  Both parameters must be set,
    because setting either one at run time also freezes glibc's dynamic
    mmap threshold wherever start-up left it (128 KB unless start-up
    freed a larger mapped block): with ``M_TOP_PAD`` alone every
    temporary above that size goes through ``mmap``/``munmap`` on each
    call and faults in again.  Fixing the threshold at
    ``MMAP_THRESHOLD`` keeps the kernels' temporaries on the heap.  Off
    glibc, or where ``mallopt`` cannot be found, this does nothing and
    returns False.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    threshold_set = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    pad_set = mallopt(_M_TOP_PAD, TOP_PAD) == 1
    return threshold_set and pad_set
