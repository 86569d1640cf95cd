"""Uniform component resolution for every pluggable registry.

The library grew four pluggable component families — restart policies,
arrival processes, workloads and schedulers — and, before this module,
four slightly different resolution functions: one accepted only a
registry name, one a name or a mapping, two a name, a mapping or a ready
instance, each with its own error wording.  :func:`resolve_component`
is the single shape behind all of them.  A *component specification* is
uniformly one of

* a registry **name** — ``"backoff"``;
* a JSON-friendly **mapping** — ``{"name": "poisson", "rate": 0.05}`` —
  the ``name`` entry selects the factory, every other entry is passed
  as a constructor keyword;
* a ready **instance** of the component's base type, returned unchanged
  (extra keywords are rejected: an already-built component cannot be
  reconfigured).

The mapping shape is what lets declarative sweep axes
(:mod:`repro.sweep`) target any component knob without code: the spec
stays JSON-serialisable all the way into the worker processes.  The
modular scheduler's ``default_strategy`` and ``per_object_strategy``
accept the same shapes for their intra-object strategies
(:data:`repro.scheduler.modular.INTRA_STRATEGIES`).

Errors are uniform and actionable: unknown names raise :class:`KeyError`
naming the registry's available entries, malformed specifications raise
:class:`TypeError` describing the accepted shapes.  The historical entry
points (``make_restart_policy``, ``make_arrival_process``,
``make_workload``, ``make_scheduler``) remain as thin wrappers.

Every registry is a :class:`LazyTable`, and so is every package's public
surface (:func:`lazy_surface`): a name is known up front, but its module
loads the first time the name is looked up, so a run loads only the
components its spec names (DESIGN.md, "Import on use").
"""

from __future__ import annotations

import importlib
import inspect
import sys
from typing import Any, Callable, Iterable, Iterator, Mapping

__all__ = [
    "LazyTable",
    "component_names",
    "lazy_surface",
    "load_target",
    "preset",
    "resolve_component",
]


def load_target(target: str, home: str, name: str = "") -> Any:
    """The object ``target`` names: ``"module:attribute"``, or ``"module"`` for ``name``.

    ``module`` is relative to the package of the module named ``home`` when
    it starts with a dot, and is ``home`` itself when empty
    (``":PoissonArrivals"``).
    """
    module, _, attribute = target.partition(":")
    loaded = importlib.import_module(module or home, sys.modules[home].__package__)
    return getattr(loaded, attribute or name)


def preset(target: str, home: str, /, **fixed: Any) -> Callable[[], Callable[..., Any]]:
    """A :class:`LazyTable` loader of class ``target`` with some keywords fixed.

    The factory it loads no longer accepts a fixed keyword:
    ``functools.partial`` would let a caller override one; here passing it
    is a ``TypeError`` (a second value for the keyword), and
    ``inspect.signature`` does not list it.  ``target`` is read as by
    :func:`load_target` from the module named ``home``.
    """

    def load() -> Callable[..., Any]:
        cls = load_target(target, home)

        def factory(**kwargs: Any) -> Any:
            return cls(**fixed, **kwargs)

        signature = inspect.signature(cls)
        factory.__signature__ = signature.replace(
            parameters=[p for p in signature.parameters.values() if p.name not in fixed]
        )
        return factory

    return load


class LazyTable(Mapping):
    """A read-only name table whose entries load on first lookup.

    An entry is a :func:`load_target` target, read from the module named
    ``home``, or a zero-argument loader.  Names, membership and iteration
    import nothing; ``table[name]`` imports that entry's module alone and
    keeps the value.
    """

    def __init__(self, home: str, entries: Mapping[str, "str | Callable[[], Any]"]):
        self._home = home
        self._entries = dict(entries)
        self._loaded: dict[str, Any] = {}

    def __getitem__(self, name: str) -> Any:
        if name not in self._loaded:
            target = self._entries[name]
            self._loaded[name] = (
                target() if callable(target) else load_target(target, self._home, name)
            )
        return self._loaded[name]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"LazyTable({self._home!r}, {sorted(self._entries)})"


def lazy_surface(home: str, exports: Mapping[str, Iterable[str]]):
    """A module's public names, each loaded from its submodule on first use (PEP 562).

    ``exports`` maps each module (``".conflicts"``, a :func:`load_target`
    module) to the names taken from it.  Returns ``(names, __getattr__,
    __dir__)`` for the module named ``home`` to bind; a name, once loaded,
    is a plain module global.  In a package, ``__getattr__`` also imports a
    submodule looked up as an attribute, as an eager ``__init__`` would have.
    """
    table = LazyTable(home, {name: module for module, names in exports.items() for name in names})
    namespace = vars(sys.modules[home])

    def __getattr__(name: str) -> Any:
        if name in table:
            namespace[name] = table[name]
            return namespace[name]
        if "__path__" in namespace and not name.startswith("__"):
            try:
                return importlib.import_module(f"{home}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{home}.{name}":
                    raise
        raise AttributeError(f"module {home!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return sorted(table), __getattr__, __dir__


def component_names(registry: Mapping[str, Any]) -> list[str]:
    """The sorted registry names a specification may reference."""
    return sorted(registry)


def resolve_component(
    registry: Mapping[str, Callable[..., Any]],
    spec: Any,
    *,
    kind: str = "component",
    instance_of: type | tuple[type, ...] | None = None,
    construction_args: tuple = (),
    **kwargs: Any,
):
    """Build a component from a ``name | {"name", ...kwargs} | instance`` spec.

    Args:
        registry: mapping of names to factories (classes or callables).
        spec: the component specification — a registry name, a mapping
            with a ``"name"`` entry plus constructor keywords, or (when
            ``instance_of`` is given) a ready instance.
        kind: human-readable component family name used in error
            messages (``"restart policy"``, ``"workload"``, ...).
        instance_of: base type(s) of ready instances; ``None`` means the
            instance shape is not accepted for this family.
        construction_args: positional arguments prepended to the factory
            call when the component is built from a name or mapping
            (ready instances are returned as-is and never see them).
        **kwargs: extra constructor keywords, merged over the mapping's
            entries.  Rejected when ``spec`` is already an instance.

    Raises:
        KeyError: on a name absent from ``registry`` (the message lists
            the available names).
        TypeError: on a mapping without a ``"name"`` entry, a
            specification of an unsupported type, keywords applied to a
            ready instance, or keywords the factory does not accept.
    """
    if instance_of is not None and isinstance(spec, instance_of):
        if kwargs:
            raise TypeError(
                f"cannot apply keyword arguments to a ready "
                f"{type(spec).__name__} instance"
            )
        return spec
    if isinstance(spec, str):
        name, merged = spec, dict(kwargs)
    elif isinstance(spec, Mapping):
        merged = {key: value for key, value in spec.items() if key != "name"}
        merged.update(kwargs)
        name = spec.get("name")
        if not isinstance(name, str):
            raise TypeError(
                f"{kind} mapping needs a 'name' entry, got {dict(spec)!r}"
            )
    else:
        raise TypeError(
            f"{kind} must be a name, a mapping or {_instance_phrase(instance_of)}, "
            f"got {spec!r}"
        )
    try:
        factory = registry[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown {kind} {name!r}; "
            f"available: {', '.join(component_names(registry))}"
        ) from exc
    return factory(*construction_args, **merged)


def _instance_phrase(instance_of: type | tuple[type, ...] | None) -> str:
    if instance_of is None:
        return "an instance"
    types = instance_of if isinstance(instance_of, tuple) else (instance_of,)
    return " or ".join(f"a {cls.__name__}" for cls in types)
