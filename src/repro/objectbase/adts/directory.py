"""Directory (hierarchical name space) abstract data type.

A simple file-system-like directory tree stored as a mapping from path
tuples to entry kinds.  Conflicts are path-granular: operations on
unrelated paths commute, while creating, removing or listing entries that
share a prefix relationship may conflict.
"""

from __future__ import annotations

from typing import Any

from ...core.conflicts import ConflictSpec
from ...core.operations import LocalOperation
from ...core.state import ObjectState
from ..base import ObjectDefinition, single_operation_method

TREE_VARIABLE = "tree"
ROOT: tuple[str, ...] = ()


def _normalise(path) -> tuple[str, ...]:
    if isinstance(path, str):
        parts = [part for part in path.split("/") if part]
        return tuple(parts)
    return tuple(path)


def _tree(state: ObjectState) -> dict[tuple[str, ...], str]:
    return dict(state.get(TREE_VARIABLE, {ROOT: "dir"}))


class MakeDirectory(LocalOperation):
    """Create a directory at ``path``; returns ``True`` when created."""

    name = "MakeDirectory"

    def __init__(self, path):
        normalised = _normalise(path)
        super().__init__(normalised)
        self.path = normalised

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        tree = _tree(state)
        parent = self.path[:-1]
        if self.path in tree or tree.get(parent) != "dir":
            return False, state
        tree[self.path] = "dir"
        return True, state.set(TREE_VARIABLE, tree)


class CreateFile(LocalOperation):
    """Create a file at ``path``; returns ``True`` when created."""

    name = "CreateFile"

    def __init__(self, path):
        normalised = _normalise(path)
        super().__init__(normalised)
        self.path = normalised

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        tree = _tree(state)
        parent = self.path[:-1]
        if self.path in tree or tree.get(parent) != "dir":
            return False, state
        tree[self.path] = "file"
        return True, state.set(TREE_VARIABLE, tree)


class RemoveEntry(LocalOperation):
    """Remove the entry at ``path`` (and any children); returns ``True`` on change."""

    name = "RemoveEntry"

    def __init__(self, path):
        normalised = _normalise(path)
        super().__init__(normalised)
        self.path = normalised

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        tree = _tree(state)
        if self.path not in tree or self.path == ROOT:
            return False, state
        removed = {
            existing
            for existing in tree
            if existing[: len(self.path)] == self.path
        }
        for existing in removed:
            tree.pop(existing)
        return True, state.set(TREE_VARIABLE, tree)


class ListDirectory(LocalOperation):
    """Return the sorted names of the direct children of ``path``."""

    name = "ListDirectory"

    def __init__(self, path=ROOT):
        normalised = _normalise(path)
        super().__init__(normalised)
        self.path = normalised

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        tree = _tree(state)
        depth = len(self.path)
        children = sorted(
            entry[depth]
            for entry in tree
            if len(entry) == depth + 1 and entry[:depth] == self.path
        )
        return tuple(children), state


class PathExists(LocalOperation):
    """Return ``True`` when an entry exists at ``path``."""

    name = "PathExists"

    def __init__(self, path):
        normalised = _normalise(path)
        super().__init__(normalised)
        self.path = normalised

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return self.path in _tree(state), state


_MUTATORS = {"MakeDirectory", "CreateFile", "RemoveEntry"}
_OBSERVERS = {"ListDirectory", "PathExists"}


def _related(first_path: tuple, second_path: tuple) -> bool:
    """True when one path is a prefix of (or equal to) the other."""
    shorter, longer = sorted((first_path, second_path), key=len)
    return longer[: len(shorter)] == shorter


class DirectoryConflicts(ConflictSpec):
    """Path-granularity conflicts for the directory tree."""

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        first_path = getattr(first, "path", None)
        second_path = getattr(second, "path", None)
        if first_path is None or second_path is None:
            return True
        if first.name in _OBSERVERS and second.name in _OBSERVERS:
            return False
        if first.name in _MUTATORS and second.name in _MUTATORS:
            # Mutations of unrelated paths commute; related paths conflict.
            return _related(first_path, second_path) or first_path[:-1] == second_path[:-1]
        # Observer vs mutator: a listing of the parent directory or of the
        # mutated path itself is affected.
        observer, mutator = (
            (first, second) if first.name in _OBSERVERS else (second, first)
        )
        if observer.name == "ListDirectory":
            return mutator.path[:-1] == observer.path or _related(observer.path, mutator.path)
        return _related(observer.path, mutator.path)


def directory_definition(name: str) -> ObjectDefinition:
    """Create a directory object with mkdir/create/remove/list/exists methods."""
    definition = ObjectDefinition(
        name=name,
        initial_state=ObjectState({TREE_VARIABLE: {ROOT: "dir"}}),
        operation_conflicts=DirectoryConflicts(),
        step_conflicts=DirectoryConflicts(),
    )
    definition.add_method(single_operation_method("mkdir", MakeDirectory))
    definition.add_method(single_operation_method("create", CreateFile))
    definition.add_method(single_operation_method("remove", RemoveEntry))
    definition.add_method(single_operation_method("list", ListDirectory))
    definition.add_method(single_operation_method("exists", PathExists))
    return definition
