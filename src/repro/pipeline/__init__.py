"""Pipeline subsystem: pass-managed compilation, cached + parallel runs.

Four layers, consumed bottom-up by the rest of the stack:

* **Pass manager** (:mod:`.passes`, :mod:`.artifact`) — the compile flow
  as named, registered passes over a :class:`CompilationArtifact`;
  :func:`scheduler_pipeline` names the full sequence for each scheduler
  backend.
* **Compile cache** (:mod:`.compilecache`) — one content-addressed
  layer ``(loop, MachineConfig, CompileOptions)`` -> pickled
  ``CompiledLoop``, in memory plus an optional on-disk store; a miss
  runs the whole pipeline.  ``repro.scheduler.compile_loop`` is a thin
  wrapper over :func:`compile_cached`.
* **Result cache** (:mod:`.cache`) — content-addressed
  ``(benchmark, MachineConfig, SimOptions)`` -> :class:`ProgramResult`
  store with an optional on-disk JSON mirror.  Every on-disk store is a
  :class:`KeyedFileStore`: one flat directory of ``<key><suffix>``
  files, whose mtimes are the LRU signal ``python -m repro.cache gc``
  evicts by.
* **Executor + session** (:mod:`.executor`, :mod:`.fleet`,
  :mod:`.session`) — serial or process-parallel fan-out of simulation
  requests over a supervised worker fleet, behind the cache;
  ``repro.eval.ExperimentContext`` runs everything through a session.
"""

from .artifact import (
    CompilationArtifact,
    CompileOptions,
    PassOrderError,
    PipelineError,
)
from .cache import (
    RESULT_SCHEMA_VERSION,
    GCReport,
    KeyedFileStore,
    ResultCache,
    VerifyReport,
    cache_key,
    code_fingerprint,
    decode_result,
    describe_config,
    describe_options,
    encode_result,
    result_fingerprint,
    result_schema_digest,
)
from .compilecache import (
    CompileCacheStats,
    CompiledLoopCache,
    compile_cached,
    compile_key,
    drop_compile_cache,
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
from .passes import (
    DEFAULT_PIPELINE,
    SCHEDULER_PASSES,
    Pass,
    PassManager,
    available_passes,
    get_pass,
    make_policy,
    register_pass,
    register_scheduler,
    scheduler_pipeline,
)
from .session import Session

__all__ = [
    "DEFAULT_PIPELINE",
    "RESULT_SCHEMA_VERSION",
    "SCHEDULER_PASSES",
    "CompilationArtifact",
    "CompileCacheStats",
    "CompileOptions",
    "CompiledLoopCache",
    "GCReport",
    "JobFailure",
    "JobFailureError",
    "KeyedFileStore",
    "ParallelExecutor",
    "Pass",
    "PassManager",
    "PassOrderError",
    "PipelineError",
    "RequestError",
    "ResultCache",
    "RunRequest",
    "SerialExecutor",
    "Session",
    "VerifyReport",
    "available_passes",
    "cache_key",
    "code_fingerprint",
    "compile_cached",
    "compile_key",
    "decode_result",
    "describe_config",
    "describe_options",
    "describe_request",
    "drop_compile_cache",
    "encode_result",
    "execute_request",
    "get_compile_cache",
    "get_pass",
    "loop_fingerprint",
    "make_executor",
    "make_policy",
    "register_pass",
    "register_scheduler",
    "result_fingerprint",
    "result_schema_digest",
    "scheduler_pipeline",
]
