"""Custom AST lint: project invariants ruff has no rules for.

Two invariants keep this repository's results reproducible, and both
live in *how* code is written rather than in any artifact a checker
could audit after the fact:

* **A101 / A102** — simulator and scheduler hot paths must be
  deterministic: no unseeded ``random`` calls, no wall-clock reads
  (``time.time``/``monotonic``/``perf_counter``, ``datetime.now``).
  Measured cycle counts are cached content-addressed; a hidden clock or
  RNG read silently breaks "a run is fully determined by its inputs".
  Applied to files under ``sim/`` and ``scheduler/``.
* **A103** — iterating a ``set``/``frozenset`` feeds hash order into
  whatever consumes the loop; in scheduling and cache-key code that
  turns into run-to-run schedule or key differences.  Applied to files
  under ``sim/``, ``scheduler/`` and ``pipeline/``; iterate
  ``sorted(...)`` instead.

Waive a finding with a same-line ``# analysis: allow(A103)`` comment
(comma-separate several codes); every waiver is deliberate and greps.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from .diagnostics import Diagnostic

_ALLOW_RE = re.compile(r"#\s*analysis:\s*allow\(([A-Z0-9,\s]+)\)")

#: ``time`` module attributes that read the wall clock.
_CLOCK_CALLS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)

#: Directories whose files are timing/ordering sensitive.
_TIMING_DIRS = frozenset({"sim", "scheduler"})
_ORDER_DIRS = frozenset({"sim", "scheduler", "pipeline"})


def _suppressions(source: str) -> dict[int, set[str]]:
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            out[lineno] = {c.strip() for c in match.group(1).split(",") if c.strip()}
    return out


def _is_set_expr(node: ast.AST) -> bool:
    """Literally a set: display, comprehension, or set()/frozenset() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _annotation_is_set(node: ast.AST | None) -> bool:
    """Does an annotation expression name ``set``/``frozenset``?"""
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _annotation_is_set(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return False
    return False


def _collect_set_bindings(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Names and ``self.<attr>`` attributes bound to sets in this module."""
    names: set[str] = set()
    attrs: set[str] = set()

    def bind(target: ast.AST, is_set: bool) -> None:
        if not is_set:
            return
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            attrs.add(target.attr)

    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            bind(node.target, _annotation_is_set(node.annotation))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target, _is_set_expr(node.value))
        elif isinstance(node, ast.arg):
            bind(ast.Name(id=node.arg), _annotation_is_set(node.annotation))
    return names, attrs


def _iterates_set(iter_node: ast.AST, names: set[str], attrs: set[str]) -> bool:
    if _is_set_expr(iter_node):
        return True
    if isinstance(iter_node, ast.Name) and iter_node.id in names:
        return True
    if (
        isinstance(iter_node, ast.Attribute)
        and isinstance(iter_node.value, ast.Name)
        and iter_node.value.id == "self"
        and iter_node.attr in attrs
    ):
        return True
    return False


def lint_source(
    source: str,
    path: str,
    *,
    timing_sensitive: bool | None = None,
    order_sensitive: bool | None = None,
) -> list[Diagnostic]:
    """Lint one file's source text.  ``None`` sensitivity = infer from path."""
    parts = set(Path(path).parts)
    if timing_sensitive is None:
        timing_sensitive = bool(parts & _TIMING_DIRS)
    if order_sensitive is None:
        order_sensitive = bool(parts & _ORDER_DIRS)

    tree = ast.parse(source, filename=path)
    allow = _suppressions(source)
    set_names, set_attrs = _collect_set_bindings(tree)
    out: list[Diagnostic] = []

    def emit(code: str, lineno: int, message: str) -> None:
        if code in allow.get(lineno, ()):
            return
        out.append(Diagnostic.new(code, message, origin=f"{path}:{lineno}"))

    for node in ast.walk(tree):
        # A101/A102: nondeterminism sources in hot paths -----------------
        if timing_sensitive and isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                module, attr = func.value.id, func.attr
                if module == "random":
                    seeded = attr in ("Random", "seed") and node.args
                    if not seeded:
                        emit(
                            "A101",
                            node.lineno,
                            f"random.{attr}() draws from the unseeded global "
                            f"RNG in a hot path",
                        )
                if module == "time" and attr in _CLOCK_CALLS:
                    emit(
                        "A102",
                        node.lineno,
                        f"time.{attr}() reads the wall clock in a hot path",
                    )
                if attr in ("now", "utcnow", "today") and (
                    module in ("datetime", "date")
                    or (
                        isinstance(func.value, ast.Attribute)
                        and func.value.attr in ("datetime", "date")
                    )
                ):
                    emit(
                        "A102",
                        node.lineno,
                        f"{module}.{attr}() reads the wall clock in a hot path",
                    )

        # A103: hash-ordered iteration -----------------------------------
        if order_sensitive:
            iters: list[tuple[ast.AST, int]] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append((node.iter, node.iter.lineno))
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    iters.append((gen.iter, gen.iter.lineno))
            for iter_node, lineno in iters:
                if _iterates_set(iter_node, set_names, set_attrs):
                    emit(
                        "A103",
                        lineno,
                        "iteration over an unordered set; wrap the iterable "
                        "in sorted() to fix the order",
                    )
    return out


def lint_paths(paths) -> list[Diagnostic]:
    """Lint files and directories (directories are walked recursively)."""
    files: list[Path] = []
    for path in paths:
        p = Path(path)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    out: list[Diagnostic] = []
    for file in files:
        out.extend(lint_source(file.read_text(), str(file)))
    return out
