"""The package's module-level caches: a cache keyed by arguments is bounded."""

import functools
import importlib
import inspect
import pkgutil

import lebesgue_lab


def module_caches():
    """(qualified name, cache) of every ``lru_cache`` defined at module level in the package."""
    for info in pkgutil.iter_modules(lebesgue_lab.__path__):
        module = importlib.import_module(f"lebesgue_lab.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj


def test_every_keyed_cache_is_bounded():
    caches = dict(module_caches())
    # the scan finds the bounded caches and the zero-argument tables of ``functools.cache``;
    # the store of finished kernel-power integrals must be one, or a unit of the
    # benchmark would read the integrals of the units before it
    assert {
        "lebesgue_lab.levelsets._segments",
        "lebesgue_lab.acceptance._epi_instances",
        "lebesgue_lab.quadrature._integrals",
    } <= caches.keys()
    keyed = {name: cache for name, cache in caches.items() if inspect.signature(cache.__wrapped__).parameters}
    assert [name for name, cache in keyed.items() if cache.cache_parameters()["maxsize"] is None] == []
