"""Tests for the public package surface: exports, docstring example, lazy imports."""

import doctest

import pytest

import repro
import repro.workload


class TestTopLevelExports:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_everything_in_all_is_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_entry_points_present(self):
        assert repro.AdaptiveModel and repro.WorkloadPredictor and repro.IlpAllocator
        assert repro.DEFAULT_CATALOG and repro.DEFAULT_TASK_POOL

    def test_module_docstring_example_runs(self):
        """The quick-start snippet in the package docstring must stay correct."""
        results = doctest.testmod(repro, verbose=False)
        assert results.attempted > 0
        assert results.failed == 0


class TestSubpackageExports:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core",
            "repro.cloud",
            "repro.mobile",
            "repro.network",
            "repro.workload",
            "repro.sdn",
            "repro.analysis",
            "repro.simulation",
            "repro.baselines",
            "repro.experiments",
        ],
    )
    def test_all_names_resolve(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_workload_lazy_replay_export(self):
        # TraceReplayer is exported lazily to avoid an import cycle with repro.sdn.
        assert repro.workload.TraceReplayer is not None
        assert repro.workload.ReplayResult is not None
        with pytest.raises(AttributeError):
            repro.workload.does_not_exist  # noqa: B018


class TestDependencyGuard:
    """Importing the package or its CLI loads only numpy beyond the stdlib.

    numpy is the one runtime dependency ``setup.py`` declares; any other
    third-party import would add start-up time to every CLI call and every
    campaign pool worker.
    """

    @pytest.mark.parametrize("module_name", ["repro", "repro.cli"])
    def test_import_loads_only_stdlib_and_numpy(self, module_name):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH", "")])
        )
        script = (
            "import sys\n"
            "before = {name.split('.')[0] for name in sys.modules}\n"
            f"import {module_name}\n"
            "after = {name.split('.')[0] for name in sys.modules}\n"
            "print(' '.join(sorted(after - before - set(sys.stdlib_module_names))))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        # __mp_main__ is the stdlib multiprocessing alias of __main__.
        assert set(completed.stdout.split()) <= {"numpy", "repro", "__mp_main__"}
