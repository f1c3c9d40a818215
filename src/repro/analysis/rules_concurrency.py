"""Concurrency rules (EPI411-EPI413): guarded-by and lock-order discipline.

The thread-shared classes (reducer, metrics registry, operand cache,
journal) each own one lock and a set of fields
that may only be touched while it is held.  The registry is seeded in
:data:`repro.analysis.config.GUARDED_BY`; any class can join by
declaring a literal class attribute::

    class Buffer:
        _GUARDED_BY = {"_items": "_lock", "_size": "_lock"}

Rules:

- **EPI411** — a guarded field accessed through ``self`` outside a
  ``with self.<lock>:`` block, in a method that is not construction
  (``__init__``/``__post_init__``), not named ``*_locked``, not in the
  spec's ``lock_held_methods``, and not tagged ``# epi4lint: lock-held``.
  Nested functions/lambdas defined inside a ``with`` block do **not**
  inherit the lock (they may run after release).
- **EPI412** — lock-acquisition-order violation: the directed graph of
  "acquired lock B while holding lock A" edges (lexical nesting plus
  same-class and annotated-receiver method calls) contains a cycle, or
  a non-reentrant lock is re-acquired on the same instance.
- **EPI413** — a guarded field accessed on a *foreign* instance (any
  receiver, outside the owning class): private synchronized state must
  be reached through the owning class's locked methods.  Field names
  owned by more than one registered class are skipped (ambiguous).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.config import CONSTRUCTION_METHODS, GUARDED_BY, GuardSpec
from repro.analysis.model import Finding, Project, SourceFile
from repro.analysis.suppressions import TAG_LOCK_HELD

__all__ = ["CONCURRENCY_RULES"]


# --------------------------------------------------------------------- #
# Registry assembly (seed + in-source _GUARDED_BY declarations)


def _declared_specs(src: SourceFile) -> list[GuardSpec]:
    """GuardSpecs from literal ``_GUARDED_BY = {...}`` class attributes."""
    specs: list[GuardSpec] = []
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "_GUARDED_BY"
                and isinstance(stmt.value, ast.Dict)
            ):
                mapping: dict[str, str] = {}
                for k, v in zip(stmt.value.keys, stmt.value.values):
                    if isinstance(k, ast.Constant) and isinstance(
                        v, ast.Constant
                    ):
                        mapping[str(k.value)] = str(v.value)
                locks = sorted(set(mapping.values()))
                for lock in locks:
                    specs.append(
                        GuardSpec(
                            module=src.module,
                            cls=node.name,
                            lock=lock,
                            fields=tuple(
                                sorted(
                                    f for f, lk in mapping.items() if lk == lock
                                )
                            ),
                            reentrant=_lock_is_reentrant(node, lock),
                        )
                    )
    return specs


def _lock_is_reentrant(cls_node: ast.ClassDef, lock: str) -> bool:
    for node in ast.walk(cls_node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Attribute)
            and isinstance(node.targets[0].value, ast.Name)
            and node.targets[0].value.id == "self"
            and node.targets[0].attr == lock
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
        ):
            return node.value.func.attr == "RLock"
    return False


def _project_specs(project: Project) -> list[tuple[GuardSpec, SourceFile, ast.ClassDef]]:
    """Every applicable spec paired with its class definition node."""
    out: list[tuple[GuardSpec, SourceFile, ast.ClassDef]] = []
    by_module: dict[str, list[GuardSpec]] = {}
    for spec in GUARDED_BY:
        by_module.setdefault(spec.module, []).append(spec)
    for src in project.files:
        specs = list(by_module.get(src.module, ())) + _declared_specs(src)
        if not specs:
            continue
        classes = {
            node.name: node
            for node in ast.walk(src.tree)
            if isinstance(node, ast.ClassDef)
        }
        seen: set[tuple[str, str]] = set()
        for spec in specs:
            node = classes.get(spec.cls)
            if node is None or (spec.cls, spec.lock) in seen:
                continue
            seen.add((spec.cls, spec.lock))
            out.append((spec, src, node))
    return out


# --------------------------------------------------------------------- #
# Shared visitor machinery


def _with_locks(node: ast.With, known_locks: frozenset[str]) -> set[str]:
    """Lock attribute names acquired by ``with self.<lock>[, ...]:``."""
    acquired: set[str] = set()
    for item in node.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in known_locks
        ):
            acquired.add(expr.attr)
    return acquired


def _method_is_lock_held(
    src: SourceFile, spec: GuardSpec, method: ast.FunctionDef | ast.AsyncFunctionDef
) -> bool:
    return (
        method.name in CONSTRUCTION_METHODS
        or method.name.endswith("_locked")
        or method.name in spec.lock_held_methods
        or src.has_line_tag(method, TAG_LOCK_HELD)
    )


@dataclass
class _ClassIndex:
    """Per-spec view of one guarded class, shared by the three rules.

    A class may guard different fields under different locks (one spec
    per lock); ``known`` and ``acquires`` are always **class-wide** so a
    ``with self._b:`` block is recognized even from the ``_a`` spec's
    index — lock-order analysis needs every acquisition, whichever spec
    it belongs to.
    """

    spec: GuardSpec
    src: SourceFile
    node: ast.ClassDef
    #: every lock attr of this class (union over its specs)
    known: frozenset[str] = frozenset()
    #: lock attr → is it an RLock (per-lock, not per-spec)
    reentrant_by_lock: dict[str, bool] = field(default_factory=dict)
    #: method name → lock attrs its body acquires via ``with self.<lock>``
    acquires: dict[str, set[str]] = field(default_factory=dict)

    def methods(self) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        return [
            stmt
            for stmt in self.node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]


def _build_indexes(project: Project) -> list[_ClassIndex]:
    entries = _project_specs(project)
    # Class-wide lock sets and reentrancy, merged over every spec of
    # the same class definition.
    known_by_class: dict[int, set[str]] = {}
    reentrant_by_class: dict[int, dict[str, bool]] = {}
    for spec, _, node in entries:
        known_by_class.setdefault(id(node), set()).add(spec.lock)
        reentrant_by_class.setdefault(id(node), {})[spec.lock] = spec.reentrant
    indexes: list[_ClassIndex] = []
    for spec, src, node in entries:
        known = frozenset(known_by_class[id(node)])
        index = _ClassIndex(
            spec=spec,
            src=src,
            node=node,
            known=known,
            reentrant_by_lock=dict(reentrant_by_class[id(node)]),
        )
        for method in index.methods():
            acquired: set[str] = set()
            for sub in ast.walk(method):
                if isinstance(sub, ast.With):
                    acquired |= _with_locks(sub, known)
            index.acquires[method.name] = acquired
        indexes.append(index)
    return indexes


class GuardedFieldOutsideLock:
    id = "EPI411"
    family = "concurrency"
    summary = "guarded field accessed outside its declared lock"

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for index in _build_indexes(project):
            spec, src = index.spec, index.src
            fields = frozenset(spec.fields)
            known_locks = index.known
            for method in index.methods():
                if _method_is_lock_held(src, spec, method):
                    continue
                self._visit(
                    src, spec, method, method.body, frozenset(), fields,
                    known_locks, findings,
                )
        return findings

    def _visit(
        self,
        src: SourceFile,
        spec: GuardSpec,
        method: ast.AST,
        body: list[ast.stmt],
        held: frozenset[str],
        fields: frozenset[str],
        known_locks: frozenset[str],
        findings: list[Finding],
    ) -> None:
        for stmt in body:
            self._visit_node(
                src, spec, method, stmt, held, fields, known_locks, findings
            )

    def _visit_node(
        self,
        src: SourceFile,
        spec: GuardSpec,
        method: ast.AST,
        node: ast.AST,
        held: frozenset[str],
        fields: frozenset[str],
        known_locks: frozenset[str],
        findings: list[Finding],
    ) -> None:
        if isinstance(node, ast.With):
            acquired = _with_locks(node, known_locks)
            inner = held | acquired
            for item in node.items:
                self._visit_node(
                    src, spec, method, item.context_expr, held, fields,
                    known_locks, findings,
                )
            for stmt in node.body:
                self._visit_node(
                    src, spec, method, stmt, inner, fields, known_locks,
                    findings,
                )
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested callable may outlive the with-block: the lock is
            # NOT held when it eventually runs.
            sub_body = node.body if isinstance(node.body, list) else [node.body]
            self._visit(
                src, spec, method, sub_body, frozenset(), fields,
                known_locks, findings,
            )
            return
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in fields
            and spec.lock not in held
        ):
            findings.append(
                Finding(
                    rule=self.id,
                    family=self.family,
                    path=src.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{spec.cls}.{node.attr} is guarded by "
                        f"self.{spec.lock} but accessed without it in "
                        f"{getattr(method, 'name', '<lambda>')}(); wrap the "
                        f"access in `with self.{spec.lock}:` or mark the "
                        "method lock-held"
                    ),
                )
            )
            return
        for child in ast.iter_child_nodes(node):
            self._visit_node(
                src, spec, method, child, held, fields, known_locks, findings
            )


class LockOrderViolation:
    id = "EPI412"
    family = "concurrency"
    summary = "lock-acquisition-order cycle or non-reentrant re-acquisition"

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        indexes = _build_indexes(project)
        class_by_name = {idx.spec.cls: idx for idx in indexes}
        # edges: (lock A, lock B) -> first site where B was taken under A
        edges: dict[tuple[str, str], tuple[str, int, int]] = {}

        done_classes: set[int] = set()
        for index in indexes:
            if id(index.node) in done_classes:
                continue  # one pass per class, however many specs it has
            done_classes.add(id(index.node))
            src = index.src
            for method in index.methods():
                ann = self._annotated_receivers(method, class_by_name)
                self._walk(
                    src, index, method, method.body, frozenset(),
                    index.known, ann, class_by_name, edges, findings,
                )

        findings.extend(self._cycle_findings(edges))
        return findings

    @staticmethod
    def _annotated_receivers(
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        class_by_name: dict[str, "_ClassIndex"],
    ) -> dict[str, str]:
        """param name → guarded class name, from type annotations."""
        out: dict[str, str] = {}
        args = list(method.args.posonlyargs) + list(method.args.args) + list(
            method.args.kwonlyargs
        )
        for arg in args:
            ann = arg.annotation
            name: str | None = None
            if isinstance(ann, ast.Name):
                name = ann.id
            elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                name = ann.value.strip().strip('"').split(".")[-1]
            elif isinstance(ann, ast.Attribute):
                name = ann.attr
            if name in class_by_name:
                out[arg.arg] = name
        return out

    def _walk(
        self,
        src: SourceFile,
        index: _ClassIndex,
        method: ast.AST,
        body: list[ast.stmt] | ast.AST,
        held: frozenset[str],
        known: frozenset[str],
        ann: dict[str, str],
        class_by_name: dict[str, "_ClassIndex"],
        edges: dict[tuple[str, str], tuple[str, int, int]],
        findings: list[Finding],
    ) -> None:
        nodes = body if isinstance(body, list) else [body]
        for node in nodes:
            self._walk_node(
                src, index, method, node, held, known, ann, class_by_name,
                edges, findings,
            )

    def _walk_node(
        self,
        src: SourceFile,
        index: _ClassIndex,
        method: ast.AST,
        node: ast.AST,
        held: frozenset[str],
        known: frozenset[str],
        ann: dict[str, str],
        class_by_name: dict[str, "_ClassIndex"],
        edges: dict[tuple[str, str], tuple[str, int, int]],
        findings: list[Finding],
    ) -> None:
        spec = index.spec
        if isinstance(node, ast.With):
            acquired = _with_locks(node, known)
            for lock in acquired:
                lock_id = f"{spec.cls}.{lock}"
                for held_id in held:
                    if held_id == lock_id and not index.reentrant_by_lock.get(
                        lock, False
                    ):
                        findings.append(
                            self._self_deadlock(src, node, spec, lock)
                        )
                    elif held_id != lock_id:
                        edges.setdefault(
                            (held_id, lock_id),
                            (src.path, node.lineno, node.col_offset),
                        )
            inner = held | {f"{spec.cls}.{lk}" for lk in acquired}
            for stmt in node.body:
                self._walk_node(
                    src, index, method, stmt, inner, known, ann,
                    class_by_name, edges, findings,
                )
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            sub = node.body if isinstance(node.body, list) else [node.body]
            self._walk(
                src, index, method, sub, frozenset(), known, ann,
                class_by_name, edges, findings,
            )
            return
        if isinstance(node, ast.Call) and held:
            callee = node.func
            if isinstance(callee, ast.Attribute) and isinstance(
                callee.value, ast.Name
            ):
                recv, meth = callee.value.id, callee.attr
                target: "_ClassIndex | None" = None
                if recv == "self":
                    target = index
                elif recv in ann:
                    target = class_by_name.get(ann[recv])
                if target is not None:
                    for lock in target.acquires.get(meth, ()):
                        lock_id = f"{target.spec.cls}.{lock}"
                        for held_id in held:
                            if (
                                held_id == lock_id
                                and recv == "self"
                                and not target.reentrant_by_lock.get(
                                    lock, False
                                )
                            ):
                                findings.append(
                                    Finding(
                                        rule=self.id,
                                        family=self.family,
                                        path=src.path,
                                        line=node.lineno,
                                        col=node.col_offset,
                                        message=(
                                            f"call to self.{meth}() while "
                                            f"holding self.{lock}: "
                                            f"{target.spec.cls}.{lock} is "
                                            "not reentrant — this "
                                            "deadlocks at runtime"
                                        ),
                                    )
                                )
                            elif held_id != lock_id:
                                edges.setdefault(
                                    (held_id, lock_id),
                                    (src.path, node.lineno, node.col_offset),
                                )
        for child in ast.iter_child_nodes(node):
            self._walk_node(
                src, index, method, child, held, known, ann, class_by_name,
                edges, findings,
            )

    def _self_deadlock(
        self, src: SourceFile, node: ast.AST, spec: GuardSpec, lock: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            family=self.family,
            path=src.path,
            line=node.lineno,
            col=node.col_offset,
            message=(
                f"with self.{lock} nested inside itself: "
                f"{spec.cls}.{lock} is not reentrant — this deadlocks "
                "at runtime"
            ),
        )

    def _cycle_findings(
        self, edges: dict[tuple[str, str], tuple[str, int, int]]
    ) -> list[Finding]:
        graph: dict[str, set[str]] = {}
        for a, b in edges:
            graph.setdefault(a, set()).add(b)
        findings: list[Finding] = []
        reported: set[frozenset[str]] = set()
        for start in sorted(graph):
            cycle = self._find_cycle(graph, start)
            if cycle is None:
                continue
            key = frozenset(cycle)
            if key in reported:
                continue
            reported.add(key)
            first_edge = (cycle[0], cycle[1 % len(cycle)])
            path, line, col = edges.get(
                first_edge, next(iter(edges.values()))
            )
            findings.append(
                Finding(
                    rule=self.id,
                    family=self.family,
                    path=path,
                    line=line,
                    col=col,
                    message=(
                        "lock-acquisition-order cycle: "
                        + " -> ".join(cycle + [cycle[0]])
                        + " — two threads taking these locks in opposite "
                        "orders can deadlock; pick one global order"
                    ),
                )
            )
        return findings

    @staticmethod
    def _find_cycle(
        graph: dict[str, set[str]], start: str
    ) -> list[str] | None:
        stack: list[str] = []
        on_stack: set[str] = set()
        visited: set[str] = set()

        def dfs(nodeid: str) -> list[str] | None:
            stack.append(nodeid)
            on_stack.add(nodeid)
            for nxt in sorted(graph.get(nodeid, ())):
                if nxt in on_stack:
                    return stack[stack.index(nxt):]
                if nxt not in visited:
                    found = dfs(nxt)
                    if found is not None:
                        return found
            on_stack.discard(nodeid)
            visited.add(nodeid)
            stack.pop()
            return None

        return dfs(start)


class ForeignGuardedAccess:
    id = "EPI413"
    family = "concurrency"
    summary = "guarded private field accessed on a foreign instance"

    def check(self, project: Project) -> list[Finding]:
        indexes = _build_indexes(project)
        # field name -> owning classes (ambiguous names are skipped)
        owners: dict[str, list[_ClassIndex]] = {}
        for index in indexes:
            for fname in index.spec.fields:
                owners.setdefault(fname, []).append(index)
        unique = {
            fname: idxs[0]
            for fname, idxs in owners.items()
            if len({i.spec.cls for i in idxs}) == 1
        }
        findings: list[Finding] = []
        for src in project.files:
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.Attribute):
                    continue
                owner = unique.get(node.attr)
                if owner is None:
                    continue
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    continue  # EPI411 territory
                if self._inside_owning_class(src, node, owner.spec.cls):
                    continue
                findings.append(
                    Finding(
                        rule=self.id,
                        family=self.family,
                        path=src.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f".{node.attr} is {owner.spec.cls}'s private "
                            f"state guarded by {owner.spec.lock}; access "
                            "it through the owning class's locked "
                            "methods instead of reaching in"
                        ),
                    )
                )
        return findings

    @staticmethod
    def _inside_owning_class(
        src: SourceFile, node: ast.AST, cls_name: str
    ) -> bool:
        cur: ast.AST | None = node
        while cur is not None:
            cur = src.parent(cur)
            if isinstance(cur, ast.ClassDef) and cur.name == cls_name:
                return True
        return False


CONCURRENCY_RULES = (
    GuardedFieldOutsideLock(),
    LockOrderViolation(),
    ForeignGuardedAccess(),
)
