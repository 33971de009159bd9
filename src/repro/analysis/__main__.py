"""``python -m repro.analysis lint [paths]`` — run the project's AST lint.

Runs the lint (A101-A103) over source trees (default: the repro
package) and exits 1 on any finding.  Compile artifacts need no
command of their own: ``compile_cached`` certifies each one before it
stores it, and every store key mixes the code fingerprint, so every
entry the current code can hit was certified when it was written.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from .lint import lint_paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="The project's AST lint (A101-A103).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    lint = sub.add_parser("lint", help="run the custom AST lint (A101-A103)")
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    args = parser.parse_args(argv)

    paths = args.paths or [Path(__file__).resolve().parents[1]]
    findings = lint_paths(paths)
    for d in findings:
        print(d.render())
    print(f"{len(findings)} lint findings")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
