"""Morsel execution backends: thread pool, process pool, inline.

The morsel executor dispatches per-morsel work through one of three
backends, selected by the ``executor_backend`` knob:

``thread``
    A shared :class:`~concurrent.futures.ThreadPoolExecutor` — the default.
    Closures capture batches directly; numpy kernels release the GIL for
    parts of their work, and on free-threaded CPython (3.13+ ``--disable-
    gil`` builds) threads scale without any data shipping at all.
``process``
    A shared :class:`~concurrent.futures.ProcessPoolExecutor` (spawn start
    method) that escapes the GIL on standard CPython.  Tasks name a
    module-level kernel (``"pkg.module:function"``) plus picklable args;
    bulk array inputs travel as zero-copy :mod:`repro.executor.shm` refs,
    and only the morsel-sized results are pickled back.
``auto``
    Resolves to ``thread`` on free-threaded builds (threads already escape
    the GIL there) and to ``process`` everywhere else.

Cancellation: the thread backend re-checks the execution's
:class:`~repro.executor.cancel.CancelToken` at the start of every morsel
(via :meth:`CancelToken.guard <repro.executor.cancel.CancelToken.guard>`);
the process backend dispatches tasks through a bounded window and polls the
token before every submission, so a cancelled query stops issuing work
within one dispatch window and its error surfaces on the next collected
future.

Supervision: a worker-process death surfaces as ``BrokenExecutor`` on the
in-flight futures.  :meth:`MorselPools.process_map` absorbs exactly one such
failure per dispatch — it rebuilds the pool and re-runs only the morsel
spans whose results were not yet collected, so the result list is
bit-identical to an undisturbed run (results concatenate in span order and
every span is pure).  A second break in the same dispatch surfaces as
:class:`~repro.errors.WorkerCrashError`, a transient error the circuit
breaker (:mod:`repro.executor.breaker`) counts toward tripping the process
backend over to threads.

Pools are created lazily, kept for the lifetime of their
:class:`~repro.executor.context.ExecutionContext` (no per-execution or
per-``execute_many`` churn) and observable through
:meth:`MorselPools.stats`.
"""

from __future__ import annotations

import importlib
import sys
import threading
from concurrent.futures import (BrokenExecutor, Executor, Future,
                                ProcessPoolExecutor, ThreadPoolExecutor)
from functools import partial
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from ..errors import ShmPressureError, WorkerCrashError
from ..faults import FaultPlan, SITE_MORSEL_DISPATCH, SITE_POOL_SUBMIT
from .cancel import CancelToken

__all__ = [
    "EXECUTOR_BACKENDS",
    "MorselPools",
    "resolve_backend",
    "run_kernel",
]

#: A concrete pool type :meth:`MorselPools._acquire` builds.
PoolT = TypeVar("PoolT", bound=Executor)

#: The accepted values of the ``executor_backend`` knob.
EXECUTOR_BACKENDS = ("thread", "process", "auto")


def free_threaded_build() -> bool:
    """True on a free-threaded (GIL-less) CPython 3.13+ build."""
    probe = getattr(sys, "_is_gil_enabled", None)
    return probe is not None and not probe()


def resolve_backend(backend: str) -> str:
    """Resolve the ``executor_backend`` knob to ``thread`` or ``process``.

    ``auto`` stays on threads when the interpreter is free-threaded (there
    is no GIL to escape, and threads share memory for free) and picks the
    shared-memory process backend on standard GIL builds.
    """
    if backend not in EXECUTOR_BACKENDS:
        raise ValueError("executor_backend must be one of %r, got %r"
                         % (EXECUTOR_BACKENDS, backend))
    if backend == "auto":
        return "thread" if free_threaded_build() else "process"
    return backend


#: Worker-side kernel resolution cache (``"module:function"`` -> callable).
_KERNELS: Dict[str, Callable[..., Any]] = {}


def run_kernel(spec: str, args: tuple) -> Any:
    """Process-pool entry point: resolve and invoke a registered kernel.

    Kernels are addressed by ``"package.module:function"`` so the spawn
    start method never pickles code objects — the worker imports the module
    (inheriting the parent's ``sys.path``) and caches the callable.
    """
    kernel = _KERNELS.get(spec)
    if kernel is None:
        module_name, _, func_name = spec.partition(":")
        kernel = getattr(importlib.import_module(module_name), func_name)
        # lint: allow(worker-shared-mutation) — process-local resolution
        # cache: each worker process owns its private copy of this module.
        _KERNELS[spec] = kernel
    try:
        return kernel(*args)
    except FileNotFoundError as exc:
        # A shared-memory attach failed: the segment the parent exported is
        # gone (/dev/shm pressure or an early unlink).  Surface it as the
        # typed transient error so the serving tier knows a retry is safe.
        raise ShmPressureError(
            "worker could not attach shared memory for kernel %r: %s"
            % (spec, exc)) from exc


class MorselPools:
    """Lazily created, persistent worker pools plus their statistics.

    One instance lives on each :class:`ExecutionContext` and is shared by
    every execution on that context: the morsel thread pool, the process
    pool of the GIL-escape backend and the ``execute_many`` batch pool are
    all created at most once per size and reused until :meth:`close` —
    pool construction counts are part of :meth:`stats` precisely so tests
    can pin the no-churn behaviour.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._thread_pool_size = 0
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._process_pool_size = 0
        self._batch_pool: Optional[ThreadPoolExecutor] = None
        self._batch_pool_size = 0
        self._pools_created = 0
        self._morsel_tasks = 0
        self._process_tasks = 0
        self._batch_tasks = 0
        self._shm_bytes = 0
        self._shm_fallbacks = 0
        self._process_pool_rebuilds = 0
        self._worker_crashes = 0
        self._morsel_retries = 0

    # -- pool acquisition ---------------------------------------------------

    def _acquire(self, name: str, workers: int,
                 make: Callable[..., PoolT]) -> PoolT:
        """The shared pool stored under ``_<name>``, rebuilt only on resize.

        Every (re)build counts toward ``pools_created``; a pool being
        replaced is shut down without waiting on its in-flight work.
        """
        workers = max(int(workers), 1)
        with self._lock:
            pool: Optional[PoolT] = getattr(self, "_" + name)
            if pool is None or getattr(self, "_%s_size" % name) != workers:
                if pool is not None:
                    pool.shutdown(wait=False)
                pool = make(max_workers=workers)
                setattr(self, "_" + name, pool)
                setattr(self, "_%s_size" % name, workers)
                self._pools_created += 1
            return pool

    def thread_pool(self, workers: int) -> ThreadPoolExecutor:
        """The shared morsel thread pool, rebuilt only when resized."""
        return self._acquire("thread_pool", workers, partial(
            ThreadPoolExecutor, thread_name_prefix="repro-morsel"))

    def process_pool(self, workers: int) -> ProcessPoolExecutor:
        """The shared GIL-escape process pool (spawn start method).

        Spawn is chosen over fork deliberately: the engine runs worker
        threads (serving tier, batch pool) and forking a threaded parent is
        undefined-behaviour territory; spawn also propagates ``sys.path``
        so workers can import the kernels by name.
        """
        return self._acquire("process_pool", workers, partial(
            ProcessPoolExecutor, mp_context=get_context("spawn")))

    def batch_pool(self, workers: int) -> ThreadPoolExecutor:
        """The persistent ``execute_many`` batch pool (whole queries).

        Separate from the morsel pool so per-query morsel parallelism
        composes with batch parallelism without deadlock; reused across
        ``execute_many`` calls instead of being rebuilt per call.
        """
        return self._acquire("batch_pool", workers, partial(
            ThreadPoolExecutor, thread_name_prefix="repro-serve"))

    # -- dispatch -----------------------------------------------------------

    def thread_map(self, fn: Callable[[Any], Any], items: Sequence[Any],
                   cancel: Optional[CancelToken], workers: int,
                   faults: Optional[FaultPlan] = None) -> List[Any]:
        """Run ``fn`` over ``items`` on the thread pool, results in order.

        Submission order is preserved, so concatenating the results
        reproduces the serial output exactly; the first worker exception
        propagates.  With a cancel token, every morsel re-checks the token
        before doing any work — a request abandoned mid-operator stops
        within one morsel: in-flight morsels finish, queued ones raise
        immediately.  With a fault plan, the ``morsel-dispatch`` site is
        consulted before each submission (hit ordinal == morsel index, so
        injection is deterministic).
        """
        pool = self.thread_pool(workers)
        if cancel is not None:
            fn = cancel.guard(fn)
        with self._lock:
            self._morsel_tasks += len(items)
        futures = []
        for item in items:
            if faults is not None:
                faults.check(SITE_MORSEL_DISPATCH)
            futures.append(pool.submit(fn, item))
        return [future.result() for future in futures]

    def process_map(self, kernel: str, args_list: Sequence[tuple],
                    cancel: Optional[CancelToken], workers: int,
                    faults: Optional[FaultPlan] = None) -> List[Any]:
        """Run a named kernel over per-morsel args on the process pool.

        Supervised: if the pool breaks mid-dispatch (a worker died), it is
        rebuilt **once** and only the spans whose results were not yet
        collected are re-submitted — spans are pure functions of their args,
        so the recovered result list is bit-identical to an undisturbed run.
        A second break in the same dispatch gives up with
        :class:`~repro.errors.WorkerCrashError` (transient, retryable).
        Results come back in submission order.
        """
        workers = max(int(workers), 1)
        with self._lock:
            self._process_tasks += len(args_list)
        results: List[Any] = [None] * len(args_list)
        pending = list(range(len(args_list)))
        rebuilt = False
        while True:
            pool = self.process_pool(workers)
            try:
                self._dispatch_window(pool, kernel, args_list, results,
                                      pending, cancel, workers, faults)
                return results
            except BrokenExecutor as exc:
                with self._lock:
                    self._worker_crashes += 1
                if rebuilt:
                    raise WorkerCrashError(
                        "process pool broke again after a rebuild while "
                        "dispatching kernel %r; giving up on this dispatch"
                        % kernel) from exc
                rebuilt = True
                with self._lock:
                    self._morsel_retries += len(pending)
                self._discard_process_pool()

    def _dispatch_window(self, pool: ProcessPoolExecutor, kernel: str,
                         args_list: Sequence[tuple], results: List[Any],
                         pending: List[int], cancel: Optional[CancelToken],
                         workers: int, faults: Optional[FaultPlan]) -> None:
        """One windowed dispatch attempt over the still-pending spans.

        Tasks flow through a bounded window (two per worker) and the cancel
        token is polled before every submission, so a cancelled query stops
        issuing new work within one dispatch step; outstanding futures are
        cancelled when an error unwinds.  ``pending`` is trimmed to the
        uncollected suffix on every exit path — that is exactly what a
        supervision re-run re-submits.
        """
        window = workers * 2
        todo = list(pending)
        futures: Dict[int, Future] = {}
        submitted = collected = 0
        try:
            while collected < len(todo):
                while submitted < len(todo) \
                        and submitted - collected < window:
                    if cancel is not None:
                        cancel.check()
                    if faults is not None:
                        faults.check(SITE_POOL_SUBMIT)
                    futures[submitted] = pool.submit(
                        run_kernel, kernel, args_list[todo[submitted]])
                    submitted += 1
                results[todo[collected]] = futures.pop(collected).result()
                collected += 1
        except BaseException:
            for future in futures.values():
                future.cancel()
            raise
        finally:
            del pending[:collected]

    def _discard_process_pool(self) -> None:
        """Drop the (broken) process pool so the next acquisition rebuilds."""
        with self._lock:
            if self._process_pool is not None:
                self._process_pool.shutdown(wait=False)
                self._process_pool = None
                self._process_pool_size = 0
            self._process_pool_rebuilds += 1

    def count_batch_tasks(self, count: int) -> None:
        """Record ``count`` whole-query tasks dispatched to the batch pool."""
        with self._lock:
            self._batch_tasks += count

    def count_shm_bytes(self, count: int) -> None:
        """Record shared-memory bytes exported for process-backend morsels."""
        with self._lock:
            self._shm_bytes += count

    def count_shm_fallbacks(self, count: int) -> None:
        """Record exports that degraded to inline transport (shm pressure)."""
        with self._lock:
            self._shm_fallbacks += count

    # -- observability / lifecycle ------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Pool-lifecycle and dispatch counters (``executor_stats`` body)."""
        with self._lock:
            return {
                "pools_created": self._pools_created,
                "morsel_tasks": self._morsel_tasks,
                "process_tasks": self._process_tasks,
                "batch_tasks": self._batch_tasks,
                "shm_bytes_exported": self._shm_bytes,
                "shm_fallbacks": self._shm_fallbacks,
                "process_pool_rebuilds": self._process_pool_rebuilds,
                "worker_crashes": self._worker_crashes,
                "morsel_retries": self._morsel_retries,
                "thread_pool_size": self._thread_pool_size,
                "process_pool_size": self._process_pool_size,
                "batch_pool_size": self._batch_pool_size,
            }

    def close(self) -> None:
        """Shut every pool down deterministically (idempotent)."""
        with self._lock:
            if self._thread_pool is not None:
                self._thread_pool.shutdown(wait=True)
                self._thread_pool = None
                self._thread_pool_size = 0
            if self._batch_pool is not None:
                self._batch_pool.shutdown(wait=True)
                self._batch_pool = None
                self._batch_pool_size = 0
            if self._process_pool is not None:
                self._process_pool.shutdown(wait=True)
                self._process_pool = None
                self._process_pool_size = 0
