"""Pipeline subsystem: the compile function, cached + parallel runs.

Four layers, consumed bottom-up by the rest of the stack:

* **Compile** (:mod:`.passes`) — :func:`compile_uncached` runs the
  paper's compile flow, six fixed steps from unroll choice to modulo
  scheduling, under one :class:`CompileOptions`.
* **Caches** (:mod:`.cache`, :mod:`.compilecache`) — one
  content-addressed :class:`KeyedCache` class: memory first, pickled
  bytes, optionally written through to a :class:`KeyedFileStore`
  directory of ``<key>.pkl`` files whose mtimes are the LRU signal
  ``python -m repro.cache gc`` evicts by.  One instance per directory
  holds compile artifacts, keyed by ``(loop, MachineConfig,
  CompileOptions)`` (a miss runs :func:`compile_uncached`;
  ``repro.scheduler.compile_loop`` is a thin wrapper over
  :func:`compile_cached`); each session holds one of
  ``(benchmark, MachineConfig, SimOptions)`` -> ``ProgramResult``.
* **Executor + session** (:mod:`.executor`, :mod:`.fleet`,
  :mod:`.session`) — serial or process-parallel fan-out of simulation
  requests over a supervised worker fleet, behind the cache;
  ``repro.eval.ExperimentContext`` runs everything through a session.
"""

from .cache import (
    GCReport,
    KeyedCache,
    KeyedCacheStats,
    KeyedFileStore,
    VerifyReport,
    cache_key,
    code_fingerprint,
    describe_config,
    describe_options,
)
from .compilecache import (
    compile_cached,
    compile_key,
    get_compile_cache,
    loop_fingerprint,
)
from .executor import (
    ParallelExecutor,
    RequestError,
    RunRequest,
    SerialExecutor,
    describe_request,
    execute_request,
    make_executor,
)
from .fleet import JobFailure, JobFailureError
from .passes import CompileOptions, compile_uncached, make_policy, scheduler_inputs
from .session import Session

__all__ = [
    "CompileOptions",
    "GCReport",
    "JobFailure",
    "JobFailureError",
    "KeyedCache",
    "KeyedCacheStats",
    "KeyedFileStore",
    "ParallelExecutor",
    "RequestError",
    "RunRequest",
    "SerialExecutor",
    "Session",
    "VerifyReport",
    "cache_key",
    "code_fingerprint",
    "compile_cached",
    "compile_key",
    "compile_uncached",
    "describe_config",
    "describe_options",
    "describe_request",
    "execute_request",
    "get_compile_cache",
    "loop_fingerprint",
    "make_executor",
    "make_policy",
    "scheduler_inputs",
]
