"""The package namespace: every submodule's public names, one object each."""

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_array_holding_dataclasses_compare_by_identity():
    # the generated __eq__ over numpy fields raises instead of answering
    for module_name in _MODULES:
        module = importlib.import_module(f"hmimo.{module_name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if not dataclasses.is_dataclass(obj) or not isinstance(obj, type):
                continue
            # annotations are strings under `from __future__ import annotations`
            if any("ndarray" in str(f.type) for f in dataclasses.fields(obj)):
                assert not obj.__dataclass_params__.eq, f"{name} needs eq=False"


def test_importing_the_package_and_the_cli_loads_no_thread_pool():
    # a fresh process's import time is part of every run's setup cost
    src = str(Path(hmimo.__file__).resolve().parent.parent)
    code = "import sys, hmimo, hmimo.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"
