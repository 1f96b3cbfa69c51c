"""The installed package ships no test oracle, under one version."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
import repro.broadcast

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_package_carries_no_oracle():
    """The frozen ``Reference*`` oracles live in ``tests/oracles/``."""
    offenders = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":  # importing it runs the CLI
            module = importlib.import_module(info.name)
            names = set(vars(module)) | set(getattr(module, "__all__", ()))
            offenders += [
                f"{info.name}.{name}" for name in sorted(names)
                if name.startswith("Reference") or name.endswith("_reference")
            ]
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.name} imports {name}" for name in imported
                if name.split(".")[0] == "tests"
            ]
    for name, fn in inspect.getmembers(repro.broadcast, inspect.isfunction):
        if "_reference" in inspect.signature(fn).parameters:
            offenders.append(f"repro.broadcast.{name}(_reference=...)")
    assert offenders == []
    for gone in ("repro.sim.network", "repro.broadcast.reference"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(gone)


def test_overloaded_unit_spec_is_gone():
    """One spec type per kind of work: the overloaded ``CampaignUnit``
    and its soak-window builders are not reachable from any module."""
    gone = {"CampaignUnit", "soak_window_unit", "enumerate_soak_units"}
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            module = importlib.import_module(info.name)
            names = set(vars(module)) | set(getattr(module, "__all__", ()))
            found += [f"{info.name}.{name}" for name in sorted(names & gone)]
    assert found == []


def test_setup_version_matches_package_version():
    """``repro.__version__`` feeds every campaign unit id; the
    distribution metadata must carry the same version."""
    tree = ast.parse((REPO_ROOT / "setup.py").read_text(encoding="utf-8"))
    versions = [
        kw.value.value
        for node in ast.walk(tree) if isinstance(node, ast.Call)
        for kw in node.keywords if kw.arg == "version"
    ]
    assert versions == [repro.__version__]
