"""Durability rules (EPI421-EPI423): the write → fsync → rename → fsync-dir
discipline for every artifact the crash-safety story depends on.

A rename (``os.rename``/``os.replace``/``shutil.move``/``Path.rename``)
publishes a file atomically **only** if the data made it to disk first
(file fsync before the rename) and the directory entry survives power
loss (directory fsync after).  The journal/shard-artifact
machinery all follow this; these rules keep new call sites honest:

- **EPI421** — rename with no ``os.fsync`` call earlier in the same
  function: the renamed file's blocks may still be dirty page cache.
- **EPI422** — no directory fsync (``fsync_directory`` or an
  ``os.fsync`` of a directory fd) after the function's final rename:
  the rename itself may not survive power loss.
- **EPI423** — ``open(..., "w"/"wb")`` of an artifact in a durability
  module outside an atomic-writer function (one that fsyncs): results
  artifacts must go through the one atomic writer
  (``repro.utils.fs.write_atomic``), never a bare write.
"""

from __future__ import annotations

import ast

from repro.analysis.config import (
    DIR_FSYNC_CALLS,
    DURABILITY_MODULES,
    FILE_FSYNC_CALLS,
    RENAME_CALLS,
)
from repro.analysis.model import Finding, Project, SourceFile

__all__ = ["DURABILITY_RULES"]


def _module_matches(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _call_origin(src: SourceFile, node: ast.Call) -> str | None:
    return src.resolve(node.func)


def _is_rename(src: SourceFile, node: ast.Call) -> bool:
    origin = _call_origin(src, node)
    if origin in RENAME_CALLS:
        return True
    # Path.rename(target) style: any `<receiver>.rename(...)` — python has
    # no common non-filesystem .rename() method, so this is low-noise.
    func = node.func
    return isinstance(func, ast.Attribute) and func.attr == "rename" and (
        origin is None or not origin.startswith("os.")
    )


def _is_file_fsync(src: SourceFile, node: ast.Call) -> bool:
    return _call_origin(src, node) in FILE_FSYNC_CALLS


def _is_dir_fsync(src: SourceFile, node: ast.Call) -> bool:
    origin = _call_origin(src, node)
    if origin in DIR_FSYNC_CALLS:
        return True
    func = node.func
    return isinstance(func, ast.Attribute) and func.attr == "fsync_directory"


def _function_calls(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.Call]:
    """Calls lexically inside ``fn`` but not inside a nested def."""
    calls: list[ast.Call] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Call):
                calls.append(child)
            visit(child)

    visit(fn)
    return sorted(calls, key=lambda c: (c.lineno, c.col_offset))


def _iter_functions(src: SourceFile) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    return [
        node
        for node in ast.walk(src.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


class RenameWithoutFsync:
    id = "EPI421"
    family = "durability"
    summary = "rename publishes a file that was never fsynced"

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for src in project.files:
            for fn in _iter_functions(src):
                calls = _function_calls(fn)
                fsync_sites = [
                    (c.lineno, c.col_offset)
                    for c in calls
                    if _is_file_fsync(src, c)
                ]
                for call in calls:
                    if not _is_rename(src, call):
                        continue
                    site = (call.lineno, call.col_offset)
                    if any(s < site for s in fsync_sites):
                        continue
                    findings.append(
                        Finding(
                            rule=self.id,
                            family=self.family,
                            path=src.path,
                            line=call.lineno,
                            col=call.col_offset,
                            message=(
                                f"rename in {fn.name}() with no preceding "
                                "os.fsync of the temp file: a crash after "
                                "the rename can publish an empty/partial "
                                "artifact — fsync before renaming (or use "
                                "repro.utils.fs.write_atomic)"
                            ),
                        )
                    )
        return findings


class RenameWithoutDirFsync:
    id = "EPI422"
    family = "durability"
    summary = "no directory fsync after the function's final rename"

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for src in project.files:
            for fn in _iter_functions(src):
                calls = _function_calls(fn)
                renames = [c for c in calls if _is_rename(src, c)]
                if not renames:
                    continue
                last = renames[-1]
                last_site = (last.lineno, last.col_offset)
                covered = any(
                    (c.lineno, c.col_offset) > last_site
                    and (_is_dir_fsync(src, c) or _is_file_fsync(src, c))
                    for c in calls
                )
                if covered:
                    continue
                findings.append(
                    Finding(
                        rule=self.id,
                        family=self.family,
                        path=src.path,
                        line=last.lineno,
                        col=last.col_offset,
                        message=(
                            f"final rename in {fn.name}() is not followed "
                            "by a directory fsync: power loss can drop "
                            "the rename itself — call "
                            "repro.utils.fs.fsync_directory on "
                            "the parent directory after renaming"
                        ),
                    )
                )
        return findings


def _open_write_mode(node: ast.Call) -> str | None:
    """The write mode of an ``open``/``io.open`` call, if any."""
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        if mode.value.startswith(("w", "x")):
            return mode.value
    return None


class BareArtifactWrite:
    id = "EPI423"
    family = "durability"
    summary = "artifact opened for writing outside an atomic-writer function"

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for src in project.files:
            if not _module_matches(src.module, DURABILITY_MODULES):
                continue
            for fn in _iter_functions(src):
                calls = _function_calls(fn)
                has_fsync = any(_is_file_fsync(src, c) for c in calls)
                if has_fsync:
                    continue  # atomic-writer shape: EPI421/422 police it
                for call in calls:
                    origin = _call_origin(src, call)
                    if origin not in ("open", "io.open"):
                        continue
                    mode = _open_write_mode(call)
                    if mode is None:
                        continue
                    findings.append(
                        Finding(
                            rule=self.id,
                            family=self.family,
                            path=src.path,
                            line=call.lineno,
                            col=call.col_offset,
                            message=(
                                f"open(..., {mode!r}) in {fn.name}() "
                                f"({src.module}) writes an artifact "
                                "without fsync: route it through "
                                "repro.utils.fs.write_atomic "
                                "(write tmp -> fsync -> rename -> "
                                "fsync dir)"
                            ),
                        )
                    )
        return findings


DURABILITY_RULES = (
    RenameWithoutFsync(),
    RenameWithoutDirFsync(),
    BareArtifactWrite(),
)
