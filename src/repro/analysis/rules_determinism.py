"""Determinism rules (EPI401-EPI403).

The bit-identical top-k contract means nothing on a digest path may
depend on wall-clock, process entropy, or hash/iteration order:

- **EPI401** — banned nondeterministic call (``time.*`` clocks,
  module-level ``random.*``, unseeded ``random.Random()`` /
  ``numpy.random.default_rng()``, ``uuid.*``, ``os.urandom``,
  ``secrets.*``) inside a deterministic scope.
- **EPI402** — epoch wall-clock read (``time.time``,
  ``datetime.now`` ...) anywhere outside the sanctioned timing modules;
  wall-clock belongs to :class:`repro.utils.timing.Timer` and the
  tracer, never to ad-hoc call sites that can leak into artifacts.
- **EPI403** — iteration over an unordered collection (set literal,
  ``set()``/``frozenset()`` call, set comprehension) in a deterministic
  scope, unless wrapped in ``sorted(...)`` — set order varies with
  ``PYTHONHASHSEED`` for str/bytes elements and with insertion history
  otherwise.

A scope is deterministic when its module is listed in
:data:`repro.analysis.config.DETERMINISTIC_MODULES`, the module carries
a ``# epi4lint: deterministic`` tag, or the enclosing function's ``def``
line does.
"""

from __future__ import annotations

import ast

from repro.analysis.config import (
    BANNED_DETERMINISTIC_CALLS,
    DETERMINISTIC_MODULES,
    SEED_REQUIRED_CALLS,
    WALLCLOCK_CALLS,
    WALLCLOCK_SANCTIONED_MODULES,
)
from repro.analysis.model import Finding, Project, SourceFile
from repro.analysis.suppressions import TAG_DETERMINISTIC

__all__ = ["DETERMINISM_RULES"]


def _module_matches(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )


def _module_deterministic(src: SourceFile) -> bool:
    return (
        _module_matches(src.module, DETERMINISTIC_MODULES)
        or TAG_DETERMINISTIC in src.module_tags
    )


def _enclosing_functions(src: SourceFile, node: ast.AST) -> list[ast.AST]:
    chain: list[ast.AST] = []
    cur: ast.AST | None = node
    while cur is not None:
        cur = src.parent(cur)
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
            chain.append(cur)
    return chain


def _in_deterministic_scope(src: SourceFile, node: ast.AST) -> bool:
    if _module_deterministic(src):
        return True
    return any(
        src.has_line_tag(fn, TAG_DETERMINISTIC)
        for fn in _enclosing_functions(src, node)
    )


class BannedNondeterministicCall:
    id = "EPI401"
    family = "determinism"
    summary = (
        "nondeterministic call (clock/RNG/UUID/entropy) in a "
        "deterministic scope"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for src in project.files:
            module_det = _module_deterministic(src)
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.Call):
                    continue
                origin = src.resolve(node.func)
                if origin is None:
                    continue
                banned = origin in BANNED_DETERMINISTIC_CALLS
                unseeded = (
                    origin in SEED_REQUIRED_CALLS
                    and not node.args
                    and not node.keywords
                )
                if not banned and not unseeded:
                    continue
                if not (module_det or _in_deterministic_scope(src, node)):
                    continue
                what = (
                    f"unseeded {origin}()"
                    if unseeded
                    else f"{origin}()"
                )
                findings.append(
                    Finding(
                        rule=self.id,
                        family=self.family,
                        path=src.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"{what} in deterministic scope "
                            f"({src.module}): digest/merge/journal/"
                            "plan/bounds paths must be "
                            "reproducible — seed it explicitly or move "
                            "it off the deterministic path"
                        ),
                    )
                )
        return findings


class WallClockOutsideTimer:
    id = "EPI402"
    family = "determinism"
    summary = "epoch wall-clock read outside the sanctioned Timer/tracer"

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for src in project.files:
            if _module_matches(src.module, WALLCLOCK_SANCTIONED_MODULES):
                continue
            if _module_deterministic(src):
                continue  # EPI401 already covers deterministic scope
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.Call):
                    continue
                origin = src.resolve(node.func)
                if origin not in WALLCLOCK_CALLS:
                    continue
                findings.append(
                    Finding(
                        rule=self.id,
                        family=self.family,
                        path=src.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"{origin}() reads the epoch clock; use "
                            "repro.utils.timing.Timer (phase timing) or "
                            "the tracer's recorded wall_start instead"
                        ),
                    )
                )
        return findings


_SETISH_CALLS = {"set", "frozenset"}
_ORDER_SAFE_WRAPPERS = {"sorted", "len", "sum", "min", "max", "any", "all", "bool"}
_ORDER_SENSITIVE_WRAPPERS = {"list", "tuple", "enumerate", "iter", "next"}


def _is_setish(src: SourceFile, node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        origin = src.resolve(node.func)
        return origin in _SETISH_CALLS
    return False


class UnorderedIteration:
    id = "EPI403"
    family = "determinism"
    summary = "order-sensitive iteration over a set in a deterministic scope"

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for src in project.files:
            module_det = _module_deterministic(src)
            for node in ast.walk(src.tree):
                if not _is_setish(src, node):
                    continue
                context = self._order_sensitive_context(src, node)
                if context is None:
                    continue
                if not (module_det or _in_deterministic_scope(src, node)):
                    continue
                findings.append(
                    Finding(
                        rule=self.id,
                        family=self.family,
                        path=src.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"set iterated {context} in deterministic "
                            f"scope ({src.module}); wrap it in sorted() "
                            "— set order varies across processes and "
                            "PYTHONHASHSEED"
                        ),
                    )
                )
        return findings

    @staticmethod
    def _order_sensitive_context(
        src: SourceFile, node: ast.AST
    ) -> str | None:
        parent = src.parent(node)
        if isinstance(parent, ast.For) and parent.iter is node:
            return "by a for loop"
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            return "by a comprehension"
        if isinstance(parent, ast.Call) and node in parent.args:
            func = parent.func
            if isinstance(func, ast.Name):
                if func.id in _ORDER_SENSITIVE_WRAPPERS:
                    return f"through {func.id}()"
                return None  # sorted()/len()/... are order-safe
            if isinstance(func, ast.Attribute) and func.attr == "join":
                return "through str.join()"
        return None


DETERMINISM_RULES = (
    BannedNondeterministicCall(),
    WallClockOutsideTimer(),
    UnorderedIteration(),
)
