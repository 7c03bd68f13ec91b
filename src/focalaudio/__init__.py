"""Interpretable environmental sound classification with focal modulation networks.

Importing the package fixes glibc's heap policy once, for the whole process
and everything else in it: allocations below 32 MiB come from the heap
(`M_MMAP_THRESHOLD`), and free memory at the top of the heap goes back to
the system only beyond 256 MiB (`M_TRIM_THRESHOLD`). Setting the two values
also turns off glibc's dynamic thresholds. On any other C library nothing
is set.

Left dynamic, both thresholds follow the largest block freed so far, so
the model's 1-4 MB per-step arrays stay on the heap only while some larger
temporary has raised them; otherwise every step maps and faults them in
afresh. Removing a 640 KB temporary from the audio frontend made every
interpretation fault in about 16 MB. Cutting the depth-wise convolution's
columns into 1 MB channel groups made every desk train step take about
5,700 minor faults and every interpretation about 10,000. With the policy
fixed, both take a median of 0 after the first. The trim threshold is the
smallest power of two above the whole heap of a desk train step (224 MiB),
so no order of frees can trim it mid-run: at 64 MiB a train step still
faulted about 5,700 times.
"""

import ctypes
import platform

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_heap_policy() -> None:
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_pin_heap_policy()
