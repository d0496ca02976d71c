"""The package namespace: every submodule's public names, one object each."""

import importlib

import hmimo

_MODULES = ("capacity", "errors", "geometry", "green", "metrics", "separable", "sweep")


def test_every_public_name_is_the_object_of_its_module():
    seen = {}
    for module_name in _MODULES:
        module = importlib.import_module(f"hmimo.{module_name}")
        for name in module.__all__:
            assert name not in seen, f"{name} exported by {seen.get(name)} and {module_name}"
            seen[name] = module_name
            assert getattr(hmimo, name) is getattr(module, name), name
    assert sorted(hmimo.__all__) == sorted(seen)


def test_the_package_capacity_name_is_the_function():
    assert hmimo.capacity is importlib.import_module("hmimo.capacity").capacity
    assert callable(hmimo.capacity)
