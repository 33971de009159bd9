"""``python -m repro.analysis`` — audit on-disk artifacts, run the lint.

* ``audit`` (the default): open the compile-artifact store, certify
  every artifact in it through the full checker stack, and report
  findings by stable code, labelled with each artifact's loop and
  scheduler.  Exits 1 when any *blocking* finding (severity above
  NOTE) survives, or when ``--min`` artifacts were not audited — so a
  CI lane cannot silently pass against an empty cache.
* ``lint``: run the project's AST lint (A101-A103) over source trees;
  exits 1 on any finding.
"""

from __future__ import annotations

import argparse
import pickle
import sys
from pathlib import Path


def audit_compile_store(
    compile_cache_dir,
    *,
    min_artifacts: int = 0,
    echo=print,
) -> int:
    """Certify every artifact in a compile store; return an exit code.

    Entries are read without refreshing their mtimes, which are the
    recency ``python -m repro.cache gc`` evicts by: an audit is not a use.
    """
    from ..pipeline.cache import KeyedFileStore
    from .certify import certify_compiled

    path = Path(compile_cache_dir)
    if not path.is_dir():
        echo(f"no compile-cache directory at {path}", file=sys.stderr)
        return 1 if min_artifacts else 0
    store = KeyedFileStore(path)
    audited = flagged = notes = 0
    for key in sorted(store.entries()):
        blob = store.peek(key)
        if blob is None:
            continue  # torn/corrupt entry: `repro.cache verify` territory
        compiled = pickle.loads(blob)
        diagnostics = certify_compiled(compiled, artifact_key=key)
        audited += 1
        blockers = [d for d in diagnostics if d.blocking]
        advisories = [d for d in diagnostics if not d.blocking]
        notes += len(advisories)
        if blockers or advisories:
            verdict = "FLAGGED" if blockers else "certified"
            echo(
                f"{verdict} {key[:12]} loop={compiled.loop.name} "
                f"scheduler={compiled.schedule.meta.get('scheduler', '?')}"
            )
            for d in blockers + advisories:
                echo("  " + d.render())
        if blockers:
            flagged += 1
    echo(
        f"{audited} artifacts audited: {audited - flagged} certified, "
        f"{flagged} flagged, {notes} notes"
    )
    if audited < min_artifacts:
        echo(
            f"expected at least {min_artifacts} artifacts but audited "
            f"{audited}",
            file=sys.stderr,
        )
        return 1
    return 1 if flagged else 0


def _cmd_audit(args) -> int:
    return audit_compile_store(
        args.compile_cache_dir,
        min_artifacts=args.min,
        echo=lambda msg, file=sys.stdout: print(msg, file=file),
    )


def _cmd_lint(args) -> int:
    from .lint import lint_paths

    paths = args.paths or [Path(__file__).resolve().parents[1]]
    findings = lint_paths(paths)
    for d in findings:
        print(d.render())
    print(f"{len(findings)} lint findings")
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("audit", "lint"):
        argv = ["audit", *argv]

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static certifier for compile artifacts + project lint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser(
        "audit", help="certify every artifact in the compile store (default)"
    )
    audit.add_argument(
        "--compile-cache-dir",
        default=".compile-cache",
        help="compile-artifact store directory",
    )
    audit.add_argument(
        "--min",
        type=int,
        default=0,
        help="fail unless at least this many artifacts were audited",
    )

    lint = sub.add_parser("lint", help="run the custom AST lint (A101-A103)")
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package)",
    )

    args = parser.parse_args(argv)
    return {"audit": _cmd_audit, "lint": _cmd_lint}[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
