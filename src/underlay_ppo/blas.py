"""One-thread runs of numpy's bundled OpenBLAS (``scipy-openblas``), via ctypes.

From a few hundred rows up OpenBLAS splits a matrix product across its
threads and the partial sums round differently, so ``ppo.train`` runs on one
thread. The thread controls are looked up once per process, through numpy's
own linalg extension; the symbol search covers the libraries it links, so
they belong to the OpenBLAS numpy really calls. Any other BLAS is left
alone; ``openblas_found`` is then false.

OpenBLAS stops its thread pool when the process forks (a ``pthread_atfork``
handler, in the parent; the child starts with none), and any later set call
restarts it, even one that sets the count already in force. A restarted
helper thread spins for about 0.1 s before it sleeps, taking a CPU from the
training processes beside it. Hence the rule: after a fork, make no set
call. ``one_blas_thread`` makes none at a count of one. The one fork site,
``worker.update_worker``, forks inside it, so the worker starts no pool.
"""
from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache

import numpy as np


@cache
def _lookup():
    """(get, set, configuration string) of the bundled OpenBLAS, or None."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
        config = lib.scipy_openblas_get_config64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    config.argtypes, config.restype = [], ctypes.c_char_p
    return get, set_, config().decode()


def _thread_controls():
    """(get, set) thread-count functions of the bundled OpenBLAS, or None."""
    return _lookup() and _lookup()[:2]


def openblas_found() -> bool:
    """Whether numpy's BLAS is its bundled OpenBLAS, whose threads can be set."""
    return _thread_controls() is not None


def openblas_config() -> str | None:
    """The bundled OpenBLAS's run-time configuration string, or None."""
    return _lookup() and _lookup()[2]


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count,
    also when the block raises. At a count of one, or under any other BLAS,
    do nothing: no set call (module doc)."""
    get, set_ = _thread_controls() or (lambda: 1, None)
    before = get()
    if before == 1:
        yield
        return
    set_(1)
    try:
        yield
    finally:
        set_(before)
