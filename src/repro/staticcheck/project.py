"""The multi-file ``Project`` model every scapcheck rule runs over.

A :class:`Project` holds every parsed file of one run, then exposes:

* a **symbol table** — every class (with its single-owner annotation,
  lock attributes, attribute types, and methods) and every module-level
  function, indexed by bare name across all files;
* the **lockset walk** — :meth:`ClassModel.locked_mutations` lists each
  ``self``-state mutation of a method with whether a ``with
  self.<lock>:`` holds around it (SC003 and SC007 both read it);
* a **type-guided call graph** — call sites are resolved through a
  deliberately conservative local type inference (parameter and return
  annotations, ``x = ClassName(...)`` locals, ``self.attr`` types
  harvested from the class body).  An unresolvable receiver produces
  *no* edge: the graph is incomplete by design, because a name-only
  resolution of methods like ``append`` or ``close`` would connect
  everything to everything and drown the rules in false positives;
* the **concurrent roots** — functions handed to ``threading.Thread``
  targets;
* **reachability** — BFS over the call graph from a root, tracking
  which classes are constructed *inside* the reachable region (objects
  a concurrent job builds for itself are thread-local and exempt from
  the single-owner escape rule).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .framework import SourceFile

__all__ = [
    "ClassModel",
    "FunctionModel",
    "ConcurrentRoot",
    "Reachable",
    "Project",
]

MODULE_BODY = "<module>"

_MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "extend",
        "insert",
        "pop",
        "popleft",
        "remove",
        "discard",
        "clear",
        "update",
        "setdefault",
    }
)


def _dotted_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` -> ["a", "b", "c"]; [] when not a pure name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _lock_attributes(cls: ast.ClassDef) -> Set[str]:
    """Names of ``self.<x>`` attributes assigned a threading Lock/RLock."""
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        chain = _dotted_chain(value.func)
        if not chain or chain[-1] not in ("Lock", "RLock"):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                locks.add(target.attr)
    return locks


def _touches_self(expr: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == "self" for sub in ast.walk(expr)
    )


def _self_attrs(exprs: Sequence[ast.AST]) -> List[str]:
    """The root ``self.<attr>`` name each expression reaches, in order."""
    names: List[str] = []
    for node in exprs:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                if node.attr not in names:
                    names.append(node.attr)
                break
            node = node.value
    return names


def _mutations(stmt: ast.stmt) -> List[Tuple[ast.AST, List[str]]]:
    """(node, ``self`` attributes it writes) for each ``self`` mutation in ``stmt``.

    A node counts when an assignment target or a mutator call's receiver
    touches ``self``; the attribute list is empty when no target is
    rooted at a ``self.<attr>`` (``table[self.key] = v``).
    """
    hits: List[Tuple[ast.AST, List[str]]] = []
    for sub in ast.walk(stmt):
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if isinstance(sub, ast.AnnAssign) and sub.value is None:
                continue
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            if any(
                isinstance(target, (ast.Attribute, ast.Subscript))
                and _touches_self(target)
                for target in targets
            ):
                hits.append((sub, _self_attrs(targets)))
        elif isinstance(sub, ast.Call):
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and _touches_self(func.value)
            ):
                hits.append((sub, _self_attrs([func.value])))
    return hits


def _annotation_names(node: Optional[ast.AST]) -> Set[str]:
    """Plausible class names named by an annotation (Optional unwrapped)."""
    names: Set[str] = set()
    if node is None:
        return names
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the trailing identifier.
        tail = node.value.strip().rsplit(".", 1)[-1].strip("'\"[] ")
        if tail.isidentifier():
            names.add(tail)
        return names
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    # Typing containers are not instance types.
    return names - {"Optional", "Union", "None", "Any", "List", "Dict",
                    "Tuple", "Set", "Sequence", "Iterable", "Callable"}


@dataclass
class FunctionModel:
    """One function or method (or a module body) in the project."""

    name: str
    qualname: str
    source: SourceFile
    node: ast.AST  # FunctionDef / AsyncFunctionDef / Module
    cls: Optional["ClassModel"] = None

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)

    def body(self) -> List[ast.stmt]:
        """The function's statement list (module statements for ``<module>``)."""
        return list(self.node.body)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.source.path, self.qualname))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionModel)
            and self.source.path == other.source.path
            and self.qualname == other.qualname
        )


@dataclass
class ClassModel:
    """One class definition plus the facts the rules need about it."""

    name: str
    source: SourceFile
    node: ast.ClassDef
    single_owner: bool
    lock_attrs: FrozenSet[str]
    methods: Dict[str, FunctionModel] = field(default_factory=dict)
    #: self.<attr> -> candidate class names, harvested from assignments
    #: and annotations anywhere in the class body.
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.source.path}::{self.name}"

    def locked_mutations(
        self, stmts: Sequence[ast.stmt], locked: bool = False
    ) -> Iterator[Tuple[ast.AST, List[str], bool]]:
        """(node, written attrs, under a lock) for each mutation in ``stmts``.

        A ``with`` whose context expression names one of
        :attr:`lock_attrs` holds the lock for its body; nested function
        bodies inherit the state of the statement that defines them.
        """
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                holds = locked or any(
                    isinstance(sub, ast.Attribute) and sub.attr in self.lock_attrs
                    for item in stmt.items
                    for sub in ast.walk(item.context_expr)
                )
                yield from self.locked_mutations(stmt.body, holds)
            elif isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
                yield from self.locked_mutations(stmt.body, locked)
                yield from self.locked_mutations(stmt.orelse, locked)
            elif isinstance(stmt, ast.Try):
                yield from self.locked_mutations(stmt.body, locked)
                for handler in stmt.handlers:
                    yield from self.locked_mutations(handler.body, locked)
                yield from self.locked_mutations(stmt.orelse, locked)
                yield from self.locked_mutations(stmt.finalbody, locked)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self.locked_mutations(stmt.body, locked)
            else:
                for node, attrs in _mutations(stmt):
                    yield node, attrs, locked


@dataclass
class ConcurrentRoot:
    """One function that runs on its own ``threading.Thread``."""

    targets: Tuple[FunctionModel, ...]
    description: str  # e.g. "threading.Thread target at owner.py:98"


@dataclass
class Reachable:
    """BFS closure from one concurrent root."""

    functions: Set[FunctionModel]
    constructed: Set[str]  # class names constructed inside the closure


class Project:
    """Symbol table + call graph over a set of parsed source files."""

    def __init__(self, sources: Sequence[SourceFile]):
        self.sources = list(sources)
        self.classes: Dict[str, List[ClassModel]] = {}
        self.functions: Dict[str, List[FunctionModel]] = {}
        self.methods: Dict[str, List[FunctionModel]] = {}
        self.module_bodies: List[FunctionModel] = []
        self.roots: List[ConcurrentRoot] = []
        self._indexed: Dict[ast.ClassDef, ClassModel] = {}
        self._edges: Dict[FunctionModel, Tuple[Set[FunctionModel], Set[str]]] = {}
        for source in self.sources:
            self._index_source(source)
        for source in self.sources:
            self._find_roots(source)

    # ------------------------------------------------------------------
    # Symbol table
    # ------------------------------------------------------------------
    def _index_source(self, source: SourceFile) -> None:
        for node in source.tree.body:
            if isinstance(node, ast.ClassDef):
                self._index_class(source, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                model = FunctionModel(
                    name=node.name, qualname=node.name, source=source, node=node
                )
                self.functions.setdefault(node.name, []).append(model)
        self.module_bodies.append(
            FunctionModel(
                name=MODULE_BODY, qualname=MODULE_BODY, source=source,
                node=source.tree,
            )
        )

    @staticmethod
    def _class_model(source: SourceFile, node: ast.ClassDef) -> ClassModel:
        return ClassModel(
            name=node.name,
            source=source,
            node=node,
            single_owner=source.single_owner(node.lineno),
            lock_attrs=frozenset(_lock_attributes(node)),
        )

    def classes_in(self, source: SourceFile) -> List[ClassModel]:
        """Every class statement of ``source``, nested ones included.

        Module-level classes are the symbol table's models; a nested
        class gets a model of its own that stays out of the call graph.
        """
        return [
            self._indexed.get(node) or self._class_model(source, node)
            for node in ast.walk(source.tree)
            if isinstance(node, ast.ClassDef)
        ]

    def _index_class(self, source: SourceFile, node: ast.ClassDef) -> None:
        model = self._class_model(source, node)
        self._indexed[node] = model
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = FunctionModel(
                    name=item.name,
                    qualname=f"{node.name}.{item.name}",
                    source=source,
                    node=item,
                    cls=model,
                )
                model.methods[item.name] = method
                self.methods.setdefault(item.name, []).append(method)
        model.attr_types = self._harvest_attr_types(node)
        self.classes.setdefault(node.name, []).append(model)

    def _harvest_attr_types(self, cls: ast.ClassDef) -> Dict[str, Set[str]]:
        """``self.<attr>`` -> candidate class names, from the class body."""
        types: Dict[str, Set[str]] = {}
        param_annotations: Dict[str, Set[str]] = {}
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = item.args
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                names = _annotation_names(arg.annotation)
                if names:
                    param_annotations[arg.arg] = names
            for sub in ast.walk(item):
                if isinstance(sub, ast.AnnAssign) and self._is_self_attr(sub.target):
                    attr = sub.target.attr  # type: ignore[union-attr]
                    types.setdefault(attr, set()).update(
                        _annotation_names(sub.annotation)
                    )
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if not self._is_self_attr(target):
                            continue
                        attr = target.attr  # type: ignore[union-attr]
                        inferred = self._value_type_names(
                            sub.value, param_annotations
                        )
                        if inferred:
                            types.setdefault(attr, set()).update(inferred)
        return types

    @staticmethod
    def _is_self_attr(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def _value_type_names(
        self, value: ast.AST, params: Dict[str, Set[str]]
    ) -> Set[str]:
        """Candidate class names for the value of an assignment."""
        if isinstance(value, ast.BoolOp):
            # `observability or NULL_OBSERVABILITY`: try every operand.
            names: Set[str] = set()
            for operand in value.values:
                names |= self._value_type_names(operand, params)
            return names
        if isinstance(value, ast.Name):
            return set(params.get(value.id, ()))
        if isinstance(value, (ast.ListComp, ast.List)):
            elements = (
                [value.elt] if isinstance(value, ast.ListComp) else value.elts
            )
            names = set()
            for element in elements:
                names |= self._value_type_names(element, params)
            return names
        if isinstance(value, ast.Call):
            chain = _dotted_chain(value.func)
            if not chain:
                return set()
            tail = chain[-1]
            if tail in self.classes:
                return {tail}
            returns = self._return_types(tail)
            return returns
        return set()

    def _return_types(self, func_name: str) -> Set[str]:
        """Class names named by return annotations of ``func_name``."""
        names: Set[str] = set()
        for model in self.functions.get(func_name, []) + self.methods.get(
            func_name, []
        ):
            returns = getattr(model.node, "returns", None)
            for candidate in _annotation_names(returns):
                if candidate in self.classes:
                    names.add(candidate)
        return names

    # ------------------------------------------------------------------
    # Local environments and call resolution
    # ------------------------------------------------------------------
    def _local_env(self, fn: FunctionModel) -> Dict[str, Set[str]]:
        """Variable name -> candidate class names inside ``fn``."""
        env: Dict[str, Set[str]] = {}
        node = fn.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                names = _annotation_names(arg.annotation)
                if names:
                    env[arg.arg] = names
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                inferred = self._value_type_names(sub.value, env)
                if not inferred and isinstance(sub.value, ast.Attribute):
                    inferred = self._attr_expr_types(fn, sub.value, env)
                if inferred:
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            env.setdefault(target.id, set()).update(inferred)
            elif isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    if item.optional_vars is None or not isinstance(
                        item.optional_vars, ast.Name
                    ):
                        continue
                    inferred = self._value_type_names(item.context_expr, env)
                    if inferred:
                        env.setdefault(item.optional_vars.id, set()).update(inferred)
        return env

    def _attr_expr_types(
        self,
        fn: FunctionModel,
        expr: ast.Attribute,
        env: Dict[str, Set[str]],
    ) -> Set[str]:
        """Types of ``<recv>.<attr>`` via the receiver's attr_types."""
        receiver_types = self._receiver_types(fn, expr.value, env)
        names: Set[str] = set()
        for type_name in receiver_types:
            for cls in self.classes.get(type_name, []):
                names |= cls.attr_types.get(expr.attr, set())
        return names

    def _receiver_types(
        self, fn: FunctionModel, recv: ast.AST, env: Dict[str, Set[str]]
    ) -> Set[str]:
        """Candidate class names for a call/attribute receiver."""
        if isinstance(recv, ast.Name):
            if recv.id == "self" and fn.cls is not None:
                return {fn.cls.name}
            return set(env.get(recv.id, ()))
        if isinstance(recv, ast.Attribute):
            return self._attr_expr_types(fn, recv, env)
        if isinstance(recv, ast.Subscript):
            # Element of a typed container: list-of-ClassName attrs.
            return self._receiver_types(fn, recv.value, env)
        if isinstance(recv, ast.Call):
            chain = _dotted_chain(recv.func)
            if chain:
                tail = chain[-1]
                if tail in self.classes:
                    return {tail}
                return self._return_types(tail)
        return set()

    def resolve_call(
        self,
        fn: FunctionModel,
        call: ast.Call,
        env: Dict[str, Set[str]],
    ) -> Tuple[Set[FunctionModel], Set[str]]:
        """(callee models, constructed class names) for one call site."""
        func = call.func
        callees: Set[FunctionModel] = set()
        constructed: Set[str] = set()
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.classes:
                constructed.add(name)
                for cls in self.classes[name]:
                    init = cls.methods.get("__init__")
                    if init is not None:
                        callees.add(init)
            else:
                callees.update(self.functions.get(name, ()))
            return callees, constructed
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in self.classes and not self._receiver_types(
                fn, func.value, env
            ):
                # module.ClassName(...) style construction.
                constructed.add(attr)
                for cls in self.classes[attr]:
                    init = cls.methods.get("__init__")
                    if init is not None:
                        callees.add(init)
                return callees, constructed
            receiver_types = self._receiver_types(fn, func.value, env)
            for type_name in receiver_types:
                for cls in self.classes.get(type_name, []):
                    method = cls.methods.get(attr)
                    if method is not None:
                        callees.add(method)
            if not receiver_types:
                # Unresolved receiver: resolve module-level functions by
                # name (cross-module helpers), but never methods — a
                # name-only method match would connect everything.
                callees.update(self.functions.get(attr, ()))
            return callees, constructed
        return callees, constructed

    # ------------------------------------------------------------------
    # Concurrent roots
    # ------------------------------------------------------------------
    def _functions_of(self, source: SourceFile) -> List[FunctionModel]:
        """Every function/method model plus the module body of one file."""
        out: List[FunctionModel] = []
        for models in self.functions.values():
            out.extend(m for m in models if m.source is source)
        for models in self.methods.values():
            out.extend(m for m in models if m.source is source)
        out.extend(m for m in self.module_bodies if m.source is source)
        return out

    def _find_roots(self, source: SourceFile) -> None:
        for fn in self._functions_of(source):
            for sub in self._own_nodes(fn):
                if isinstance(sub, ast.Call):
                    self._root_from_thread(source, fn, sub)

    def _own_nodes(self, fn: FunctionModel) -> List[ast.AST]:
        """AST nodes belonging to ``fn`` itself.

        For a module body, nested function/class bodies are excluded —
        they are modeled as their own functions.
        """
        out: List[ast.AST] = []
        stack: List[ast.AST] = list(fn.node.body)  # type: ignore[attr-defined]
        while stack:
            node = stack.pop()
            if fn.name == MODULE_BODY and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            out.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return out

    def _callable_targets(
        self, fn: FunctionModel, expr: ast.AST
    ) -> Tuple[FunctionModel, ...]:
        """Function models a callable expression may name."""
        if isinstance(expr, ast.Name):
            return tuple(self.functions.get(expr.id, ()))
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and fn.cls is not None
            ):
                method = fn.cls.methods.get(expr.attr)
                return (method,) if method is not None else ()
            # obj.method as a target: resolve by method name across all
            # classes that define it — spawning another object's method
            # on a thread is exactly what SC006 wants to see.
            return tuple(self.methods.get(expr.attr, ()))
        return ()

    def _root_from_thread(
        self,
        source: SourceFile,
        fn: FunctionModel,
        call: ast.Call,
    ) -> None:
        chain = _dotted_chain(call.func)
        if not chain or chain[-1] != "Thread":
            return
        target_expr = next(
            (kw.value for kw in call.keywords if kw.arg == "target"), None
        )
        if target_expr is None:
            return
        targets = self._callable_targets(fn, target_expr)
        if not targets:
            return
        self.roots.append(
            ConcurrentRoot(
                targets=targets,
                description=(
                    f"threading.Thread target at {source.path}:{call.lineno}"
                ),
            )
        )

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def edges(self, fn: FunctionModel) -> Tuple[Set[FunctionModel], Set[str]]:
        """(callees, constructed class names) of one function, cached."""
        cached = self._edges.get(fn)
        if cached is not None:
            return cached
        callees: Set[FunctionModel] = set()
        constructed: Set[str] = set()
        env = self._local_env(fn)
        for sub in self._own_nodes(fn):
            if isinstance(sub, ast.Call):
                found, built = self.resolve_call(fn, sub, env)
                callees |= found
                constructed |= built
        self._edges[fn] = (callees, constructed)
        return self._edges[fn]

    def reachable(self, root: ConcurrentRoot) -> Reachable:
        """The call-graph closure of one concurrent root."""
        seen: Set[FunctionModel] = set()
        constructed: Set[str] = set()
        frontier: List[FunctionModel] = list(root.targets)
        while frontier:
            fn = frontier.pop()
            if fn in seen:
                continue
            seen.add(fn)
            callees, built = self.edges(fn)
            constructed |= built
            frontier.extend(callees - seen)
        return Reachable(functions=seen, constructed=constructed)

    # ------------------------------------------------------------------
    def mutations(self, fn: FunctionModel) -> List[ast.AST]:
        """``self``-state mutation nodes inside a method."""
        return [node for stmt in fn.body() for node, _ in _mutations(stmt)]
