"""The two OpenBLAS copies that numpy and scipy bundle: pin and record their threads.

numpy's wheel ships ``libscipy_openblas64_`` (the ``@`` products of the
Grams) and scipy's ships ``libscipy_openblas`` (``cho_factor`` and
``cho_solve``).
Each runs its calls on its own pool of threads, sized from the core count
unless OPENBLAS_NUM_THREADS says otherwise, and the count decides how each
call is partitioned, so it reaches the last bits of the results.  `pin`
fixes both pools to THREADS threads through the libraries' own setters,
which makes the CSVs independent of the machine's core count and of that
variable.

After each call the workers spin for 2^OPENBLAS_THREAD_TIMEOUT cycles before
they sleep (2^28, about 0.1 s, when unset), and a spinning pool holds the
cores the other one needs.  Both libraries read the variable only when they
load, so the package sets its default (see nle/__init__) before numpy loads;
here it is only read back.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import os
from pathlib import Path

__all__ = ["THREADS", "pin"]

THREADS = 2

# package whose wheel bundles the library, the library's file pattern next
# to that package, and its thread-count setter and getter
_LIBRARIES = (
    (
        "numpy",
        "numpy.libs/libscipy_openblas64_*.so",
        "scipy_openblas_set_num_threads64_",
        "scipy_openblas_get_num_threads64_",
    ),
    (
        "scipy",
        "scipy.libs/libscipy_openblas-*.so",
        "scipy_openblas_set_num_threads",
        "scipy_openblas_get_num_threads",
    ),
)


def pin() -> dict[str, str]:
    """Set both pools to THREADS threads; return the manifest entries recording it.

    ``blas_threads`` and ``blas_thread_timeout`` are the values read back
    from the libraries after the pin: one number when both agree, else one
    ``name=value`` pair per library.  A timeout of 0 means the variable was
    unset when the library loaded.  When a library is not loaded or lacks a
    symbol (another BLAS build), nothing is pinned and the entries read
    ``unpinned`` and ``unknown``: the run goes on with the BLAS defaults.
    """
    try:
        found = {spec[0]: _functions(*spec) for spec in _LIBRARIES}
    except (OSError, AttributeError):
        return {"blas_threads": "unpinned", "blas_thread_timeout": "unknown"}
    for set_threads, _, _ in found.values():
        set_threads(THREADS)
    threads = {name: get() for name, (_, get, _) in found.items()}
    timeouts = {name: timeout() for name, (_, _, timeout) in found.items()}
    return {"blas_threads": _record(threads), "blas_thread_timeout": _record(timeouts)}


def _functions(package: str, pattern: str, setter: str, getter: str):
    """(set threads, get threads, get timeout) of one loaded library.

    Raises OSError when no single matching library is loaded in this process
    and AttributeError when a symbol is missing.
    """
    site = Path(importlib.import_module(package).__file__).parent.parent
    paths = glob.glob(str(site / pattern))
    if len(paths) != 1:
        raise OSError(f"expected one {pattern} next to {package}, found {len(paths)}")
    # RTLD_NOLOAD: only a library the process has already loaded is opened
    lib = ctypes.CDLL(paths[0], mode=os.RTLD_NOLOAD)
    set_threads, get_threads, timeout = (
        getattr(lib, setter), getattr(lib, getter), lib.openblas_thread_timeout
    )
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    for get in (get_threads, timeout):
        get.argtypes, get.restype = [], ctypes.c_int
    return set_threads, get_threads, timeout


def _record(values: dict[str, int]) -> str:
    if len(set(values.values())) == 1:
        return str(next(iter(values.values())))
    return " ".join(f"{name}={value}" for name, value in values.items())
