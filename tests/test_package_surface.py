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


def test_timing_model_is_the_only_loss_spelling():
    """Every runner says how messages are lost with one ``timing``
    model: the ``drop_schedule``/``topology`` keywords, the
    ``timing_model_for`` translator and the second delay runner with
    its own result type are gone."""
    from repro.adversaries.clones import run_clone_experiment
    from repro.adversaries.scenario import ScenarioSystem
    from repro.broadcast import runner as broadcast_runner
    from repro.classic.runner import run_classic
    from repro.sim.runner import run_agreement, run_execution

    gone = {"timing_model_for", "run_delay_execution",
            "DelaySimulationResult", "_kernel_delay_result"}
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            module = importlib.import_module(info.name)
            names = set(vars(module)) | set(getattr(module, "__all__", ()))
            found += [f"{info.name}.{name}" for name in sorted(names & gone)]
    assert found == []
    runners = [
        run_execution,
        run_agreement,
        run_classic,
        broadcast_runner.run_authenticated_broadcast,
        broadcast_runner.run_reliable_broadcast,
        broadcast_runner.run_multiplicity_broadcast,
        broadcast_runner._drive,
        ScenarioSystem.run,
        run_clone_experiment,
    ]
    for fn in runners:
        parameters = set(inspect.signature(fn).parameters)
        assert "timing" in parameters, fn.__qualname__
        assert not parameters & {"drop_schedule", "topology"}, fn.__qualname__


def test_one_reader_for_the_result_logs():
    """``AtlasLog`` is the one reader of the JSONL result logs: the
    soak forwarder, the renderer's private parser and fold, and the
    unused ``SilentProcess`` are gone."""
    import repro.atlas.render as render

    gone = {"SilentProcess", "stream_rows"}
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            module = importlib.import_module(info.name)
            names = set(vars(module)) | set(getattr(module, "__all__", ()))
            found += [f"{info.name}.{name}" for name in sorted(names & gone)]
    found += [
        f"repro.atlas.render.{name}" for name in ("_parse_line", "_fold_from")
        if hasattr(render, name)
    ]
    assert found == []


def _inbox_builds(tree):
    """``(enclosing qualname, line)`` of every ``Inbox(...)``,
    ``Inbox.from_canonical(...)`` and ``Inbox.merged(...)`` call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                if (
                    isinstance(func, ast.Name) and func.id == "Inbox"
                ) or (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("from_canonical", "merged")
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "Inbox"
                ):
                    found.append((scope, child.lineno))
            visit(child, inner)

    visit(tree, "")
    return found


def test_delivered_inboxes_are_built_in_three_places():
    """A delivered inbox is built by the message fabric, by the
    explorer's ``_post_states`` (its scratch deliveries) or by the one
    ghost rule ``GhostPlan.heard`` -- nowhere else.  ``core/messages.py``
    defines the constructors (and ``merge_inboxes``, a union of inboxes
    already delivered)."""
    anywhere = {"sim/fabric.py", "core/messages.py"}
    allowed = {
        ("explore/search.py", "_post_states"),
        ("explore/alphabet.py", "GhostPlan.heard"),
    }
    package = REPO_ROOT / "src" / "repro"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        if rel in anywhere:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [
            f"{rel}:{line} ({scope or 'module'})"
            for scope, line in _inbox_builds(tree)
            if (rel, scope) not in allowed
        ]
    assert offenders == []


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
