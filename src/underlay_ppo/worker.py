"""The update worker: one forked process that runs tasks beside its caller.

A task is a module-level function ``task(here, *args)``, where ``here`` is a
dict that belongs to the executor. An executor runs its tasks in submission
order, each under the submitter's ``np.geterr()``; ``result()`` returns the
oldest unread result, or raises what its task raised. ``Inline``, the
zero-worker executor, runs each task in the caller when its result is read.

``Worker`` runs them in a forked process and pickles each message (the task
by name, its arguments, the error state) and each reply. Every exception in
a reply crosses in ``_Pickler``: as a copy caused by the worker's formatted
traceback (``WorkerTraceback``), or, if it does not pickle, as a
``RuntimeError`` naming its type and message. ``busy`` counts the results
owed, each from its message's first byte. A worker that leaves a ``with``
block owing one is killed, never read again; a read or write that finds it
gone raises ``RuntimeError`` naming its ``owner`` and pid.

A pipe holds 64 KiB, so the worker writes only what the caller reads before
the caller's next write, two messages sent back to back counting as one
write when the second fits in the pipe unread. ``ppo``'s schedule reads
ship's result and each value result before it submits the next batches, and
submits the value task (a few hundred bytes) right after the policy task.

``update_worker`` forks the worker inside ``one_blas_thread``: the worker
starts at a count of one, the fork stopped OpenBLAS's pool, and no task pins
the count, so no set call restarts it (``blas``). ``Inline`` runs its tasks
inside ``ppo.train``'s pin, as only ``train`` builds one.

The worker ignores SIGINT, exits on end-of-file when its parent dies and is
killed at interpreter exit; a process forked from its parent forks its own.
``update_worker`` gives none off Linux, in a daemonic ``multiprocessing``
process, if ``fork`` fails, or while a ``with`` block holds the worker.
"""
from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import signal
import sys
import traceback
from collections import deque

import numpy as np

from .blas import one_blas_thread


class WorkerTraceback(Exception):
    """The worker's formatted traceback of an exception it sent, as its cause."""


class _Pickler(pickle.Pickler):
    """Pickles a reply's exceptions as the module doc says."""

    def reducer_override(self, obj):
        if not isinstance(obj, BaseException):
            return NotImplemented
        try:
            data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
            pickle.loads(data)  # some exceptions pickle but do not unpickle
        except Exception:
            data = pickle.dumps(RuntimeError(f"{type(obj).__name__}: {obj}"))
        return _rebuilt, (data, "".join(traceback.format_exception(obj)))


def _rebuilt(data: bytes, text: str) -> BaseException:
    exc = pickle.loads(data)
    exc.__cause__ = WorkerTraceback(text)
    return exc


def _serve(requests, replies) -> None:
    """The worker's loop, until the parent's end of ``requests`` closes."""
    here = {}
    while True:
        try:
            task, args, errors = pickle.load(requests)
        except (EOFError, OSError, pickle.UnpicklingError):  # the parent closed its end or died
            return
        try:
            with np.errstate(**errors):
                reply = False, task(here, *args)
        except Exception as exc:
            reply = True, exc
        _Pickler(replies, pickle.HIGHEST_PROTOCOL).dump(reply)
        replies.flush()


class Worker:
    """This process's update worker (module doc). ``in_call``: a ``with``
    block holds it, so ``update_worker`` gives none."""

    def __init__(self):
        (req_in, req_out), (rep_in, rep_out) = os.pipe(), os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (req_in, req_out, rep_in, rep_out):
                os.close(fd)
            raise
        if self.pid == 0:  # the worker; it never returns from here
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(req_out)  # so the parent's death reads as end-of-file
                os.close(rep_in)
                _serve(os.fdopen(req_in, "rb"), os.fdopen(rep_out, "wb"))
            finally:
                os._exit(0)
        os.close(req_in)
        os.close(rep_out)
        self.requests, self.replies = os.fdopen(req_out, "wb"), os.fdopen(rep_in, "rb")
        self.busy, self.in_call, self.owner = 0, False, "this process"

    def __enter__(self) -> Worker:
        self.in_call = True
        return self

    def __exit__(self, *exc_info) -> None:
        self.in_call = False
        if self.busy:  # no later holder may read the results this one left owed
            self.close(kill=True)

    def alive(self) -> bool:
        try:
            return os.waitpid(self.pid, os.WNOHANG)[0] == 0  # reaps it if it exited
        except ChildProcessError:  # reaped already
            return False

    def close(self, kill: bool) -> None:
        """Close this process's pipe ends and drop the handle; with ``kill``,
        also kill and reap the worker."""
        global _worker
        if self.replies.closed:
            return
        self.replies.close()
        with contextlib.suppress(OSError):  # a dead worker's pipe is broken
            self.requests.close()
        if _worker is self:
            _worker = None
        if kill:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)

    def _lost(self) -> RuntimeError:
        self.close(kill=True)
        return RuntimeError(f"the update worker of {self.owner} (pid {self.pid}) "
                            "exited; the next call forks a new one")

    def submit(self, task, *args) -> None:
        self.busy += 1
        try:
            pickle.dump((task, args, np.geterr()), self.requests, pickle.HIGHEST_PROTOCOL)
            self.requests.flush()
        except OSError:
            raise self._lost() from None

    def result(self):
        try:
            raised, value = pickle.load(self.replies)
        except (EOFError, OSError, pickle.UnpicklingError):
            raise self._lost() from None
        self.busy -= 1
        if raised:
            raise value
        return value


class Inline:
    """The zero-worker executor (module doc)."""

    def __init__(self):
        self.here, self.tasks = {}, deque()

    def __enter__(self) -> Inline:
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def submit(self, task, *args) -> None:
        self.tasks.append((task, args, np.geterr()))

    def result(self):
        task, args, errors = self.tasks.popleft()
        with np.errstate(**errors):
            return task(self.here, *args)


_worker: Worker | None = None


def update_worker() -> Worker | None:
    """This process's free update worker, forked if it has none or its last
    one exited; None where none can start (module doc)."""
    global _worker
    if _worker is not None and not _worker.alive():
        _worker.close(kill=False)
    # a multiprocessing child has imported multiprocessing, so no import is needed
    process = sys.modules.get("multiprocessing.process")
    daemonic = process is not None and process.current_process().daemon
    if _worker is None and sys.platform.startswith("linux") and not daemonic:
        with contextlib.suppress(OSError), one_blas_thread():
            _worker = Worker()
    return None if _worker is None or _worker.in_call else _worker


atexit.register(lambda: _worker and _worker.close(kill=True))
os.register_at_fork(after_in_child=lambda: _worker and _worker.close(kill=False))
