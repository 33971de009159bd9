"""Maintenance CLI over the on-disk artifact stores.

``python -m repro.cache <command>`` operates on the three cache
directories the pipeline persists — the result store, the
compile-artifact store and the fuzz-job store — each opened as one
``KeyedCache`` over its ``KeyedFileStore``:

* ``stats``  — entry count, bytes and recency range per store;
* ``gc``     — bound each directory to ``--max-bytes``, evicting the
  least recently used entries (oldest file mtime) first;
* ``verify`` — unpickle-check every entry and drop the corrupt,
  including entries left in an older format (``<key>.json``); exit 1
  if anything was dropped, so CI can assert a restored cache is sound.

The directories default to the names CI persists (``.result-cache``,
``.compile-cache``, ``.fuzz-cache``); a missing directory is skipped,
never created.  Every store is one flat directory of ``<key>.pkl``
files; a file's mtime is its entry's recency (written or last hit).
``gc`` is the one way to bound a store: every key mixes the code
fingerprint, so entries written by other code versions are never hit
again and are the first the size cap evicts.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from ..pipeline.cache import KeyedCache
from ..pipeline.passes import CompileOptions
from ..sim.runner import SimOptions

_SIZE_UNITS = {"": 1, "K": 1024, "M": 1024**2, "G": 1024**3}


def _finite_non_negative(value: float, text: str) -> float:
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"expected a finite value >= 0: {text!r}")
    return value


def parse_size(text: str) -> int:
    """``"200M"`` -> bytes (K/M/G binary suffixes; bare number = bytes)."""
    raw = str(text).strip().upper().removesuffix("B")
    unit = raw[-1:] if raw[-1:] in ("K", "M", "G") else ""
    try:
        value = float(raw.removesuffix(unit)) * _SIZE_UNITS[unit]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a size: {text!r}") from None
    return int(_finite_non_negative(value, text))


def parse_age(text: str) -> float:
    """A ``--min-age`` in seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number of seconds: {text!r}") from None
    return _finite_non_negative(value, text)


def parse_exact_budget(text: str) -> int:
    """An ``--exact-budget`` node budget that ``CompileOptions`` accepts, so
    a bad value is a usage error before any job runs."""
    try:
        return CompileOptions(exact_node_budget=int(text)).exact_node_budget
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_sim_cap(text: str) -> int:
    """A ``--sim-cap`` that ``SimOptions`` accepts, so a bad value is a
    usage error before anything compiles."""
    try:
        return SimOptions(sim_cap=int(text)).sim_cap
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def format_size(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # unreachable; keeps type-checkers calm


def _age(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.0f}m"
    if seconds < 86400:
        return f"{seconds / 3600:.0f}h"
    return f"{seconds / 86400:.1f}d"


def open_stores(args) -> list[tuple[str, KeyedCache]]:
    """The caches named by the CLI flags whose directories exist.

    Never creates a directory: a maintenance tool that mkdirs the thing
    it is asked to clean up would mask typos.
    """
    dirs = {
        "results": Path(args.cache_dir),
        "compile": Path(args.compile_cache_dir),
        "fuzz": Path(args.fuzz_cache_dir),
    }
    stores = [
        (label, KeyedCache(path)) for label, path in dirs.items() if path.is_dir()
    ]
    if not stores:
        print(
            f"no cache directories found ({' / '.join(map(str, dirs.values()))})",
            file=sys.stderr,
        )
    return stores


def cmd_stats(args) -> int:
    now = time.time()
    for label, cache in open_stores(args):
        store = cache.store
        entries = store.entries()
        total = sum(stat.st_size for stat in entries.values())
        print(f"{label}: {store.path}")
        print(f"  entries: {len(entries)}  bytes: {total} ({format_size(total)})")
        if entries:
            mtimes = [stat.st_mtime for stat in entries.values()]
            print(
                f"  last used: newest {_age(now - max(mtimes))} ago, "
                f"oldest {_age(now - min(mtimes))} ago"
            )
    return 0


def cmd_gc(args) -> int:
    for label, cache in open_stores(args):
        report = cache.gc(max_bytes=args.max_bytes, min_age_s=args.min_age)
        print(
            f"{label}: {report.entries_before} entries "
            f"({format_size(report.bytes_before)}) -> {report.entries_after} "
            f"({format_size(report.bytes_after)}); evicted {len(report.evicted)}"
        )
    return 0


def cmd_verify(args) -> int:
    corrupt = 0
    analysis_rc = 0
    for label, cache in open_stores(args):
        report = cache.verify()
        corrupt += len(report.corrupt)
        print(f"{label}: {report.ok} entries ok, {len(report.corrupt)} corrupt removed")
        if getattr(args, "analyze", False) and label == "compile":
            # Beyond entry soundness: run the static certifier over
            # every artifact that survived verification.
            from ..analysis.__main__ import audit_compile_store

            analysis_rc = audit_compile_store(cache.store.path) or analysis_rc
    return 1 if corrupt or analysis_rc else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cache",
        description="Inspect, bound and verify the on-disk artifact stores.",
    )
    parser.add_argument(
        "--cache-dir",
        default=".result-cache",
        help="result store directory (skipped if missing)",
    )
    parser.add_argument(
        "--compile-cache-dir",
        default=".compile-cache",
        help="compile-artifact store directory (skipped if missing)",
    )
    parser.add_argument(
        "--fuzz-cache-dir",
        default=".fuzz-cache",
        help="fuzz-job store directory (skipped if missing)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", help="entry counts, bytes, recency range")

    gc = sub.add_parser("gc", help="bound the stores (LRU by file mtime)")
    gc.add_argument(
        "--max-bytes",
        type=parse_size,
        required=True,
        help="evict least recently used entries until each store fits "
        "(accepts K/M/G suffixes, e.g. 200M)",
    )
    gc.add_argument(
        "--min-age",
        type=parse_age,
        default=60.0,
        help="never evict entries written or hit within this many seconds "
        "(grace period for concurrent writers)",
    )

    verify = sub.add_parser(
        "verify",
        help="unpickle-check every entry and drop the corrupt, including "
        "entries in an older format (exit 1 if anything was corrupt)",
    )
    verify.add_argument(
        "--analyze",
        action="store_true",
        help="additionally run the repro.analysis certifier over every "
        "compile artifact (exit 1 on any blocking finding)",
    )

    args = parser.parse_args(argv)
    handler = {
        "stats": cmd_stats,
        "gc": cmd_gc,
        "verify": cmd_verify,
    }[args.command]
    return handler(args)
