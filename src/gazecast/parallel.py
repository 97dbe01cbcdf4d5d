"""Fixed-size sample shards of a batch, run on one thread per CPU.

The model has no batch-level layer, so the samples of a batch are
independent: train and eval cut every batch into shards of ``SHARD``
samples and run them on up to one thread per CPU this process may use.
The shard size is a constant, not a setting, because the outputs are not
batch-invariant: a GEMM over 16 samples may round differently from two over
8. OpenBLAS held to one thread (``set_blas_threads(1)``, which the CLI
calls) makes a shard's bits independent of the thread that runs it and of
how many run, so the outputs are the same bytes on any number of CPUs.
While BLAS runs threads of its own, or cannot be asked, the shards run one
after another on the calling thread: the same code and the same bytes,
without two pools competing for the cores.
"""

from __future__ import annotations

import contextvars
import ctypes
import glob
import os
import threading
from functools import lru_cache

import numpy as np

from . import tensor as T

SHARD = 8


def shard_slices(n: int) -> list[slice]:
    """The shards of ``n`` samples: runs of ``SHARD``, the last one shorter."""
    return [slice(s, min(s + SHARD, n)) for s in range(0, n, SHARD)]


def usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@lru_cache(maxsize=1)
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    or None when numpy has none or it exports neither."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def blas_threads() -> int | None:
    """OpenBLAS's thread count, or None when it cannot be asked."""
    blas = _openblas()
    return None if blas is None else blas[0]()


def set_blas_threads(n: int) -> None:
    """Set OpenBLAS's thread count, where numpy's BLAS exports a setter."""
    blas = _openblas()
    if blas is not None:
        blas[1](n)


def thread_count(shards: int) -> int:
    """Threads that run ``shards`` shards: one per usable CPU, at most one
    per shard, and one unless BLAS runs on exactly one thread."""
    if shards < 2 or blas_threads() != 1:
        return 1
    return min(usable_cpus(), shards)


def run_shards(fn, n: int) -> list:
    """``[fn(worker, sl) for sl in shard_slices(n)]``, the shards dealt
    over ``thread_count`` threads: shard ``i`` runs on thread ``i mod
    threads``, each thread taking its shards in order. The shards are equal
    but the last, so the deal balances the load as well as a queue would.

    ``worker`` is the index of the running thread, 0 for the calling one,
    so ``fn`` can keep per-thread state such as a model replica. Worker
    threads start in a copy of the caller's context (``np.errstate`` and
    ``no_grad`` among it), and they empty their tapes when they end.
    A shard that raises stops every thread from starting a later shard, and
    earlier ones still run; once every thread is joined, the calling
    thread's tape is emptied and the error of the first failing shard in
    shard order is raised, the same one a serial run meets first. An
    interrupt of the calling thread empties its tape too. With one thread
    no thread is started: the calling thread runs the shards one after
    another, with the same bytes.
    """
    slices = shard_slices(n)
    results: list = [None] * len(slices)
    # shard index -> its error; -1 marks an interrupt of the calling thread
    errors: dict[int, BaseException] = {}
    count = thread_count(len(slices))

    def drain(worker: int) -> None:
        for i in range(worker, len(slices), count):
            if i > min(errors, default=i):
                return
            try:
                results[i] = fn(worker, slices[i])
            except Exception as exc:
                errors[i] = exc

    def start(worker: int) -> None:
        try:
            drain(worker)
        finally:
            T.fresh_tape()   # nobody can replay it once the thread ends

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(start, worker))
               for worker in range(1, count)]
    try:
        for t in threads:
            t.start()
        drain(0)
    except BaseException as exc:
        errors[-1] = exc   # after an interrupt here, no thread starts another shard
        raise
    finally:
        for t in threads:
            if t.ident is not None:
                t.join()
        if errors:
            T.fresh_tape()
    if errors:
        raise errors[min(errors)]
    return results
