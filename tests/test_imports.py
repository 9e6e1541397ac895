"""Lazy package exports: a CLI call imports only the subsystems it runs.

Every package ``__init__`` declares its public names in a table that
:func:`repro._lazy.lazy_exports` resolves on first access.  These tests pin
what a fresh interpreter loads per CLI call, and that the lazy names are the
same objects the eager ``from .x import y`` lines used to bind.

NumPy counts as one of those subsystems: the analytic calls (``eval``, the
tables, ``offload``, ``timing``, a bad-input exit) evaluate the scalar models
with plain operators and :mod:`math` and must not import it, while the array
callers (the batch engine, the simulator, the bit-accurate datapath, the
optimizer) do.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro import cli

SRC = Path(__file__).resolve().parent.parent / "src"

#: Entry modules of the subsystems a call may or may not need.
SUBSYSTEMS = (
    "repro.api.accuracy", "repro.api.batch", "repro.api.rtl", "repro.core.architectures",
    "repro.data", "repro.faults", "repro.fleet", "repro.fpga.odeblock_hw", "repro.nn.layers",
    "repro.opt", "repro.rtl", "repro.sim", "repro.train",
)

#: Modules only a process pool needs: no serial CLI call may load them.
POOL_MODULES = ("concurrent.futures.process", "multiprocessing")

#: CLI argv -> the subsystems that call imports (every other one, and every
#: pool module, must stay out) and its exit status.
CALLS = {
    "eval": (["eval", "rODENet-3", "--depth", "56", "--json"], set(), 0),
    "table1": (["table1"], set(), 0),
    "table5": (["table5"], set(), 0),
    "offload": (["offload", "rODENet-3"], set(), 0),
    "timing": (["timing"], set(), 0),
    "eval-bad-depth": (["eval", "rODENet-3", "--depth", "0"], set(), 2),
    # Bad serving input exits 2 from the scenario's own checks, before the
    # NumPy-backed simulator, fleet runner or optimizer is imported.
    "sim-bad-batch-size": (["sim", "rODENet-1", "--batch-size", "0"], {"repro.sim"}, 2),
    "sim-bad-fault-duration": (
        ["sim", "rODENet-3", "--fault-duration", "nan"], {"repro.faults", "repro.sim"}, 2,
    ),
    "fleet-bad-replicas": (["fleet", "--replicas", "-1"], {"repro.fleet", "repro.sim"}, 2),
    "optimize-no-objective": (
        ["optimize", "--fidelity", "sim", "--requests", "0"],
        {"repro.fleet", "repro.opt", "repro.sim"},
        2,
    ),
    "optimize-bad-requests": (
        ["optimize", "--objective", "min:p99_ms", "--fidelity", "sim", "--requests", "0"],
        {"repro.fleet", "repro.opt", "repro.sim"},
        2,
    ),
    # The optimizer checks its request, and the CLI an accuracy sweep's run,
    # before the first evaluation imports NumPy.
    "optimize-bad-objective": (
        ["optimize", "--objective", "bogus"], {"repro.fleet", "repro.opt", "repro.sim"}, 2,
    ),
    "optimize-bad-budget": (
        ["optimize", "--objective", "min:p99_ms", "--fidelity", "sim", "--budget", "-1"],
        {"repro.fleet", "repro.opt", "repro.sim"},
        2,
    ),
    "accuracy-sweep-bad-images": (["accuracy-sweep", "--images", "0"], set(), 2),
    "sweep-batch": (
        ["sweep", "--depths", "20", "--n-units", "8", "--engine", "batch", "--format", "csv"],
        {"numpy", "repro.api.batch"},
        0,
    ),
    "sim": (
        ["sim", "rODENet-1", "--depth", "20", "--requests", "5", "--json"],
        {"numpy", "repro.sim"},
        0,
    ),
    "accuracy-sweep": (
        ["accuracy-sweep", "--images", "1", "--formats", "16:8", "--json"],
        {"numpy", "repro.api.accuracy", "repro.fpga.odeblock_hw"},
        0,
    ),
    "optimize-sim": (
        [
            "optimize", "--objective", "min:energy_per_request_J",
            "--constraint", "p95_ms<=250", "--fidelity", "sim", "--requests", "100",
            "--n-units", "16", "32", "--replicas", "1", "2",
            "--arrivals", "poisson", "--rate", "0.5", "--seed", "0", "--json",
        ],
        {"numpy", "repro.api.batch", "repro.fleet", "repro.opt", "repro.sim"},
        0,
    ),
}


def _fresh_modules(code: str) -> set:
    """The ``repro`` and pool modules, and ``numpy`` if loaded, that a fresh
    interpreter holds after running ``code``."""

    probe = (
        "import contextlib, io, json, sys\n"
        f"{code}\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        f"    if m.startswith('repro') or m in {POOL_MODULES + ('numpy',)!r})))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120,
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestFreshInterpreter:
    def test_import_repro_loads_no_subpackage(self):
        assert _fresh_modules("import repro") == {"repro", "repro._lazy"}

    def test_import_cli_loads_no_numpy(self):
        assert "numpy" not in _fresh_modules("import repro.cli")

    @pytest.mark.parametrize("case", sorted(CALLS))
    def test_cli_call_loads_only_what_it_runs(self, case):
        argv, needed, status = CALLS[case]
        loaded = _fresh_modules(
            "from repro.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
            f"    assert main({argv!r}) == {status}"
        )
        assert {m for m in SUBSYSTEMS + POOL_MODULES + ("numpy",) if m in loaded} == needed

    def test_shadowing_names_survive_a_direct_submodule_import(self):
        # ``sweep``, ``accuracy_model`` and ``odeint`` are both a submodule and
        # the function it exports; the package attribute stays the function.
        loaded = _fresh_modules(
            "import repro.api.sweep, repro.analysis.accuracy_model, repro.ode.odeint\n"
            "from repro.api import sweep\n"
            "from repro.analysis import accuracy_model\n"
            "from repro.ode import odeint\n"
            "assert all(callable(f) for f in (sweep, accuracy_model, odeint))"
        )
        assert "repro.api.sweep" in loaded


def _packages():
    return [getattr(repro, name) for name in repro.__all__ if name != "__version__"]


class TestLazyExports:
    @pytest.mark.parametrize("package", _packages(), ids=lambda p: p.__name__)
    def test_every_public_name_resolves(self, package):
        for name in package.__all__:
            value = getattr(package, name)
            if isinstance(value, types.ModuleType):
                # Only a declared submodule may resolve to a module.
                assert value is sys.modules[f"{package.__name__}.{name}"]
        assert set(package.__all__) <= set(dir(package))

    def test_from_import_star(self):
        namespace: dict = {}
        exec("from repro.api import *", namespace)
        assert {"Scenario", "sweep_batch", "simulate", "optimize"} <= set(namespace)
        assert callable(namespace["sweep"])

    def test_unknown_names_raise_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.api.no_such_name  # noqa: B018
        assert not hasattr(repro.sim, "__wrapped__")
        assert not hasattr(cli, "no_such_name")

    def test_submodule_attribute_imports_it(self):
        assert repro.fixedpoint.arithmetic is sys.modules["repro.fixedpoint.arithmetic"]
        assert repro.fpga.gemm.PlannedGemm is repro.fpga.PlannedGemm


class TestCliEngineHooks:
    def test_sweep_runs_the_patched_module_attribute(self, monkeypatch, capsys):
        # Handlers reach the lazily loaded batch engine through ``repro.cli``,
        # so a profiler that wraps ``repro.cli.sweep_batch`` sees the call.
        calls = []
        engine = cli.sweep_batch

        def wrapped(grid):
            calls.append(len(grid))
            return engine(grid)

        monkeypatch.setattr(cli, "sweep_batch", wrapped)
        argv = ["sweep", "--depths", "20", "--n-units", "8", "16", "--format", "csv"]
        # With or without ``--engine batch``: the CLI has no other engine.
        for flag in ([], ["--engine", "batch"]):
            calls.clear()
            assert cli.main([*argv, *flag]) == 0
            assert calls == [14]
            assert len(capsys.readouterr().out.splitlines()) == 15
