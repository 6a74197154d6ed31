"""pyproject.toml points only at things that exist.

A wheel build would find some of these faults, but only with the build
tooling installed; reading the metadata directly needs nothing but tomllib.
"""

from __future__ import annotations

import importlib
import os
import re

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def project() -> dict:
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        return tomllib.load(f)["project"]


def test_declared_readme_exists():
    readme = project().get("readme")
    if readme is None:
        return
    path = readme if isinstance(readme, str) else readme.get("file")
    if path is not None:
        assert os.path.isfile(os.path.join(ROOT, path)), path


def test_script_targets_resolve():
    for name, target in project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in filter(None, attr.split(".")):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_runtime_dependencies_import():
    for req in project().get("dependencies", []):
        name = re.match(r"[A-Za-z0-9_.-]+", req).group(0)
        importlib.import_module(name.replace("-", "_"))
