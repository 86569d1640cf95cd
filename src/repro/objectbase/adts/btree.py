"""B-tree index abstract data type.

Section 2 of the paper motivates per-object synchronisation with "an object
representing a dictionary data type (with methods Lookup, Insert, and
Delete) might be implemented as a B-tree", for which a specialised
concurrency-control algorithm can be chosen.  This module provides that
object: a real B-tree (minimum-degree ``t``) implemented functionally over
immutable node tuples so it can live inside an :class:`ObjectState`, with
key-granularity and range-aware conflict specifications.

The pure-functional B-tree algorithms (search, insert with node splitting,
delete with borrowing and merging, range scan, invariant validation) are
exposed as module-level functions so they can be tested independently of the
object-base machinery.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable

from ...core.conflicts import ConflictSpec
from ...core.errors import InvalidOperationError
from ...core.operations import LocalOperation, LocalStep
from ...core.state import ObjectState
from ..base import ObjectDefinition, single_operation_method

ROOT_VARIABLE = "root"
DEGREE_VARIABLE = "degree"
NOT_FOUND = None

LEAF = "leaf"
INTERNAL = "internal"

# A node is ("leaf", keys, values) or ("internal", keys, children); keys,
# values and children are tuples, children has len(keys) + 1 entries.

Node = tuple


def empty_tree() -> Node:
    """A B-tree with no keys."""
    return (LEAF, (), ())


def is_leaf(node: Node) -> bool:
    return node[0] == LEAF


def node_keys(node: Node) -> tuple:
    return node[1]


def tree_search(node: Node, key) -> Any:
    """Return the value bound to ``key`` or ``NOT_FOUND``."""
    while True:
        kind, keys, payload = node
        index = bisect.bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            if kind == LEAF:
                return payload[index]
            # Internal nodes store separator keys only; continue right of it.
            node = payload[index + 1]
            continue
        if kind == LEAF:
            return NOT_FOUND
        node = payload[index]


def tree_insert(node: Node, key, value, degree: int) -> Node:
    """Insert (or overwrite) ``key`` and return the new root."""
    root = _insert_into(node, key, value, degree)
    if len(node_keys(root)) > 2 * degree - 1:
        return _split_root(root, degree)
    return root


def _split_root(root: Node, degree: int) -> Node:
    left, separator, right = _split_node(root, degree)
    return (INTERNAL, (separator,), (left, right))


def _split_node(node: Node, degree: int) -> tuple[Node, Any, Node]:
    kind, keys, payload = node
    middle = len(keys) // 2
    separator = keys[middle]
    if kind == LEAF:
        left = (LEAF, keys[:middle], payload[:middle])
        right = (LEAF, keys[middle:], payload[middle:])
        # Leaves keep the separator key in the right sibling (B+-tree style),
        # so the separator guides the search without holding a value twice.
        return left, separator, right
    left = (INTERNAL, keys[:middle], payload[: middle + 1])
    right = (INTERNAL, keys[middle + 1 :], payload[middle + 1 :])
    return left, separator, right


def _insert_into(node: Node, key, value, degree: int) -> Node:
    kind, keys, payload = node
    index = bisect.bisect_left(keys, key)
    if kind == LEAF:
        if index < len(keys) and keys[index] == key:
            values = payload[:index] + (value,) + payload[index + 1 :]
            return (LEAF, keys, values)
        new_keys = keys[:index] + (key,) + keys[index:]
        new_values = payload[:index] + (value,) + payload[index:]
        return (LEAF, new_keys, new_values)
    if index < len(keys) and keys[index] == key:
        index += 1
    child = _insert_into(payload[index], key, value, degree)
    children = payload[:index] + (child,) + payload[index + 1 :]
    if len(node_keys(child)) > 2 * degree - 1:
        left, separator, right = _split_node(child, degree)
        new_keys = keys[:index] + (separator,) + keys[index:]
        children = payload[:index] + (left, right) + payload[index + 1 :]
        return (INTERNAL, new_keys, children)
    return (INTERNAL, keys, children)


def tree_delete(node: Node, key, degree: int) -> tuple[Node, bool]:
    """Delete ``key``; returns ``(new_root, removed)``."""
    root, removed = _delete_from(node, key, degree)
    if not is_leaf(root) and len(node_keys(root)) == 0:
        root = root[2][0]
    return root, removed


def _delete_from(node: Node, key, degree: int) -> tuple[Node, bool]:
    kind, keys, payload = node
    index = bisect.bisect_left(keys, key)
    if kind == LEAF:
        if index < len(keys) and keys[index] == key:
            return (LEAF, keys[:index] + keys[index + 1 :], payload[:index] + payload[index + 1 :]), True
        return node, False
    child_index = index + 1 if index < len(keys) and keys[index] == key else index
    child, removed = _delete_from(payload[child_index], key, degree)
    children = payload[:child_index] + (child,) + payload[child_index + 1 :]
    rebalanced = _rebalance((INTERNAL, keys, children), child_index, degree)
    return rebalanced, removed


def _rebalance(node: Node, child_index: int, degree: int) -> Node:
    """Fix up a child that may have become too small after a deletion."""
    _, keys, children = node
    child = children[child_index]
    if len(node_keys(child)) >= degree - 1 or len(children) == 1:
        return (INTERNAL, keys, children)

    # Try borrowing from the left sibling.
    if child_index > 0 and len(node_keys(children[child_index - 1])) > degree - 1:
        left = children[child_index - 1]
        new_left, new_child, separator = _borrow_from_left(left, child, keys[child_index - 1])
        new_keys = keys[: child_index - 1] + (separator,) + keys[child_index:]
        new_children = (
            children[: child_index - 1] + (new_left, new_child) + children[child_index + 1 :]
        )
        return (INTERNAL, new_keys, new_children)

    # Try borrowing from the right sibling.
    if child_index < len(children) - 1 and len(node_keys(children[child_index + 1])) > degree - 1:
        right = children[child_index + 1]
        new_child, new_right, separator = _borrow_from_right(child, right, keys[child_index])
        new_keys = keys[:child_index] + (separator,) + keys[child_index + 1 :]
        new_children = (
            children[:child_index] + (new_child, new_right) + children[child_index + 2 :]
        )
        return (INTERNAL, new_keys, new_children)

    # Merge with a sibling.
    if child_index > 0:
        merged = _merge(children[child_index - 1], child, keys[child_index - 1])
        new_keys = keys[: child_index - 1] + keys[child_index:]
        new_children = children[: child_index - 1] + (merged,) + children[child_index + 1 :]
    else:
        merged = _merge(child, children[child_index + 1], keys[child_index])
        new_keys = keys[:child_index] + keys[child_index + 1 :]
        new_children = children[:child_index] + (merged,) + children[child_index + 2 :]
    return (INTERNAL, new_keys, new_children)


def _borrow_from_left(left: Node, child: Node, separator) -> tuple[Node, Node, Any]:
    kind, left_keys, left_payload = left
    if kind == LEAF:
        moved_key, moved_value = left_keys[-1], left_payload[-1]
        new_left = (LEAF, left_keys[:-1], left_payload[:-1])
        new_child = (LEAF, (moved_key,) + child[1], (moved_value,) + child[2])
        return new_left, new_child, moved_key
    moved_key = left_keys[-1]
    moved_child = left_payload[-1]
    new_left = (INTERNAL, left_keys[:-1], left_payload[:-1])
    new_child = (INTERNAL, (separator,) + child[1], (moved_child,) + child[2])
    return new_left, new_child, moved_key


def _borrow_from_right(child: Node, right: Node, separator) -> tuple[Node, Node, Any]:
    kind, right_keys, right_payload = right
    if kind == LEAF:
        moved_key, moved_value = right_keys[0], right_payload[0]
        new_right = (LEAF, right_keys[1:], right_payload[1:])
        new_child = (LEAF, child[1] + (moved_key,), child[2] + (moved_value,))
        return new_child, new_right, right_keys[1] if len(right_keys) > 1 else moved_key
    moved_child = right_payload[0]
    new_right = (INTERNAL, right_keys[1:], right_payload[1:])
    new_child = (INTERNAL, child[1] + (separator,), child[2] + (moved_child,))
    return new_child, new_right, right_keys[0]


def _merge(left: Node, right: Node, separator) -> Node:
    kind = left[0]
    if kind == LEAF:
        return (LEAF, left[1] + right[1], left[2] + right[2])
    return (INTERNAL, left[1] + (separator,) + right[1], left[2] + right[2])


def tree_items(node: Node) -> Iterable[tuple[Any, Any]]:
    """Yield ``(key, value)`` pairs in ascending key order."""
    kind, keys, payload = node
    if kind == LEAF:
        yield from zip(keys, payload)
        return
    for index, child in enumerate(payload):
        yield from tree_items(child)
        if index < len(keys):
            pass  # separator keys carry no values


def tree_range(node: Node, low, high) -> list[tuple[Any, Any]]:
    """All ``(key, value)`` pairs with ``low <= key <= high``."""
    return [(key, value) for key, value in tree_items(node) if low <= key <= high]


def tree_height(node: Node) -> int:
    height = 1
    while not is_leaf(node):
        node = node[2][0]
        height += 1
    return height


def tree_size(node: Node) -> int:
    return sum(1 for _ in tree_items(node))


def validate_tree(node: Node, degree: int) -> None:
    """Raise :class:`InvalidOperationError` when B-tree invariants fail."""
    leaf_depths: set[int] = set()

    def check(current: Node, lower, upper, depth: int, is_root: bool) -> None:
        kind, keys, payload = current
        if list(keys) != sorted(keys):
            raise InvalidOperationError("keys are not sorted within a node")
        if not is_root and len(keys) < degree - 1 and kind == INTERNAL:
            raise InvalidOperationError("internal node underflow")
        if len(keys) > 2 * degree - 1:
            raise InvalidOperationError("node overflow")
        for key in keys:
            if lower is not None and key < lower:
                raise InvalidOperationError("key below permitted range")
            if upper is not None and key > upper:
                raise InvalidOperationError("key above permitted range")
        if kind == LEAF:
            leaf_depths.add(depth)
            return
        if len(payload) != len(keys) + 1:
            raise InvalidOperationError("child count must be key count + 1")
        bounds = (lower,) + keys + (upper,)
        for index, child in enumerate(payload):
            check(child, bounds[index], bounds[index + 1], depth + 1, False)

    check(node, None, None, 0, True)
    if len(leaf_depths) > 1:
        raise InvalidOperationError("leaves are not all at the same depth")


# ---------------------------------------------------------------------------
# Local operations
# ---------------------------------------------------------------------------


def _root(state: ObjectState) -> Node:
    return state.get(ROOT_VARIABLE, empty_tree())


def _degree(state: ObjectState) -> int:
    return state.get(DEGREE_VARIABLE, 2)


class SearchKey(LocalOperation):
    """Return the value bound to ``key`` (``NOT_FOUND`` when absent)."""

    name = "SearchKey"

    def __init__(self, key):
        super().__init__(key)
        self.key = key

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return tree_search(_root(state), self.key), state


class InsertKey(LocalOperation):
    """Insert or overwrite ``key``; returns the previous value (or ``NOT_FOUND``)."""

    name = "InsertKey"

    def __init__(self, key, value: Any = True):
        super().__init__(key, value)
        self.key = key
        self.value = value

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        root = _root(state)
        previous = tree_search(root, self.key)
        new_root = tree_insert(root, self.key, self.value, _degree(state))
        return previous, state.set(ROOT_VARIABLE, new_root)


class DeleteKey(LocalOperation):
    """Delete ``key``; returns ``True`` when a binding was removed."""

    name = "DeleteKey"

    def __init__(self, key):
        super().__init__(key)
        self.key = key

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        root = _root(state)
        new_root, removed = tree_delete(root, self.key, _degree(state))
        if not removed:
            return False, state
        return True, state.set(ROOT_VARIABLE, new_root)


class RangeScan(LocalOperation):
    """Return all ``(key, value)`` pairs with keys in ``[low, high]``."""

    name = "RangeScan"

    def __init__(self, low, high):
        super().__init__(low, high)
        self.low = low
        self.high = high

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return tuple(tree_range(_root(state), self.low, self.high)), state


class IndexSize(LocalOperation):
    """Return the number of keys in the index."""

    name = "IndexSize"

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return tree_size(_root(state)), state


_KEYED = {"SearchKey", "InsertKey", "DeleteKey"}
_MUTATORS = {"InsertKey", "DeleteKey"}


class BTreeConflicts(ConflictSpec):
    """Conflict specification for the *physical* B-tree index.

    Observers (``SearchKey``, ``RangeScan``, ``IndexSize``) read logical
    content only, so they conflict with a mutation exactly when that
    mutation could change what they observe: a search conflicts with a
    mutator of the same key, a range scan with a mutator whose key falls
    inside the scanned interval, the size observer with any mutator.

    Mutators (``InsertKey``, ``DeleteKey``) always conflict with one
    another, even on distinct keys: the object's state is the physical node
    structure, and node splits and merges make the final tree shape depend
    on the order of structural changes.  (A dictionary object that exposes
    only the logical mapping — :mod:`repro.objectbase.adts.kv_store` — can
    soundly declare distinct-key mutations commuting; recovering that
    freedom for a physical B-tree requires the state/operation abstraction
    the paper's Section 3 deliberately leaves out of its model.)
    """

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        if first.name in _MUTATORS and second.name in _MUTATORS:
            return True
        if first.name in _KEYED and second.name in _KEYED:
            if first.key != second.key:
                return False
            return first.name in _MUTATORS or second.name in _MUTATORS
        if {first.name, second.name} == {"RangeScan"}:
            return False
        if "RangeScan" in (first.name, second.name):
            scan, other = (first, second) if first.name == "RangeScan" else (second, first)
            if other.name in _MUTATORS:
                return scan.low <= other.key <= scan.high
            return False
        if "IndexSize" in (first.name, second.name):
            other = second if first.name == "IndexSize" else first
            return other.name in _MUTATORS
        return True


class BTreeStepConflicts(BTreeConflicts):
    """Step-level refinement: redundant deletions commute.

    A ``DeleteKey`` that returned ``False`` removed nothing and left the
    physical structure untouched, so it commutes with every operation whose
    own behaviour does not depend on that key — only an ``InsertKey`` or
    ``DeleteKey`` of the *same* key is (conservatively) kept conflicting.
    """

    def steps_conflict(self, first: LocalStep, second: LocalStep) -> bool:
        for redundant, other in ((first, second), (second, first)):
            if redundant.operation.name == "DeleteKey" and redundant.return_value is False:
                other_operation = other.operation
                if other_operation.name in _MUTATORS and getattr(
                    other_operation, "key", None
                ) == redundant.operation.key:
                    return True
                return False
        return self.operations_conflict(first.operation, second.operation)


def btree_definition(name: str, degree: int = 2, initial_items: dict | None = None) -> ObjectDefinition:
    """Create a B-tree index object with search/insert/delete/range methods."""
    if degree < 2:
        raise InvalidOperationError("B-tree minimum degree must be at least 2")
    root = empty_tree()
    for key, value in sorted((initial_items or {}).items()):
        root = tree_insert(root, key, value, degree)
    definition = ObjectDefinition(
        name=name,
        initial_state=ObjectState({ROOT_VARIABLE: root, DEGREE_VARIABLE: degree}),
        operation_conflicts=BTreeConflicts(),
        step_conflicts=BTreeStepConflicts(),
        intra_object_synchroniser="btree-key-locking",
    )
    definition.add_method(single_operation_method("search", SearchKey))
    definition.add_method(single_operation_method("insert", InsertKey))
    definition.add_method(single_operation_method("delete", DeleteKey))
    definition.add_method(single_operation_method("range", RangeScan))
    definition.add_method(single_operation_method("size", lambda: IndexSize()))
    return definition
