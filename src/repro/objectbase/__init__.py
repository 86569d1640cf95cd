"""Object-base runtime: object definitions, methods and ready-made ADTs."""

from ..core.registry import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".base": (
            "MethodDefinition",
            "ObjectBase",
            "ObjectDefinition",
            "build_object_base",
            "single_operation_method",
        ),
    },
)
