"""The multi-file ``Project`` model every scapcheck rule runs over.

A :class:`Project` holds every parsed file of one run, then exposes:

* a **symbol table** — every module-level class (with its single-owner
  annotation, lock attributes and methods), indexed by bare name
  across all files;
* the **lockset walk** — :meth:`ClassModel.locked_mutations` lists each
  ``self``-state mutation of a method with whether a ``with
  self.<lock>:`` holds around it (SC003 and SC007 both read it).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple, Union

from .framework import SourceFile

__all__ = [
    "ClassModel",
    "Project",
]

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


@dataclass
class ClassModel:
    """One class definition plus the facts the rules need about it."""

    name: str
    source: SourceFile
    node: ast.ClassDef
    single_owner: bool
    lock_attrs: FrozenSet[str]
    methods: Dict[str, Union[ast.FunctionDef, ast.AsyncFunctionDef]] = field(
        default_factory=dict
    )

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


class Project:
    """Symbol table over a set of parsed source files."""

    def __init__(self, sources: Sequence[SourceFile]):
        self.sources = list(sources)
        self.classes: Dict[str, List[ClassModel]] = {}
        self._indexed: Dict[ast.ClassDef, ClassModel] = {}
        for source in self.sources:
            for node in source.tree.body:
                if isinstance(node, ast.ClassDef):
                    self._index_class(source, node)

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
        class gets a model of its own that stays out of the table.
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
                model.methods[item.name] = item
        self.classes.setdefault(node.name, []).append(model)
