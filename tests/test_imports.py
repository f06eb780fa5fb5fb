"""What ``import repro`` and each ``zar`` subcommand load, and the public
names the lazy package ``__init__``s resolve.

Start-up cost is paid per process, so the budget tests run each command
in a fresh interpreter and read its ``sys.modules`` afterwards.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro.engine.native import native_available
from repro.engine.pool import HAVE_NUMPY

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "examples" / "programs"

#: Packages whose public names resolve on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.cftree",
    "repro.compiler",
    "repro.engine",
    "repro.itree",
    "repro.lang",
    "repro.sampler",
)

#: Public names that are also submodules of their package, so the
#: package imports them eagerly (see ``repro._lazy``).
COLLISIONS = (
    ("repro.cftree", "debias"),
    ("repro.lang", "pretty"),
    ("repro.semantics", "wp"),
    ("repro.semantics", "cwp"),
    ("repro.semantics", "ert"),
    ("repro.sampler", "preimage"),
    ("repro.mcmc", "replay"),
    ("repro.verify", "fuzz"),
    ("repro.cli", "main"),
)

#: Runs ``zar ARGS`` in-process and prints its exit code, stdout and
#: loaded modules as JSON.
_PROBE = """
import io, json, sys
from repro.cli.main import main
out = io.StringIO()
code = main(sys.argv[1:], out)
print(json.dumps({"code": code, "out": out.getvalue(),
                  "modules": sorted(sys.modules)}))
"""


def _env(state, **extra):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("ZAR_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["ZAR_NATIVE_CACHE_DIR"] = str(state / "kernels")
    env["ZAR_COMPILE_CACHE_DIR"] = str(state / "store")
    env["TMPDIR"] = str(state)
    env.update(extra)
    return env


def _child(code, args, env):
    proc = subprocess.run(
        [sys.executable, "-c", code] + list(args),
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run(args, state, **extra):
    """``(exit code, stdout, loaded modules)`` of one fresh ``zar`` run."""
    record = json.loads(_child(_PROBE, args, _env(state, **extra)))
    return record["code"], record["out"], set(record["modules"])


def _program(name):
    return str(PROGRAMS / name)


#: The batch engine's modules: only ``sample`` and ``compile`` run them.
BATCH_ENGINE = ("repro.engine.api", "repro.engine.driver",
                "repro.engine.table", "repro.engine.pool")


class TestImportBudget:
    @pytest.mark.parametrize("statement",
                             ["import repro", "import repro.cli.main"])
    def test_import_loads_neither_numpy_nor_networkx(self, tmp_path,
                                                     statement):
        code = statement + "\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
        modules = set(json.loads(_child(code, [], _env(tmp_path))))
        assert "numpy" not in modules
        assert "networkx" not in modules

    @pytest.mark.parametrize("args", [
        ["lint", "die.gcl"],
        ["bounds", "die.gcl"],
        ["compile", "die.gcl"],
        ["infer", "geometric.gcl"],
    ], ids=lambda args: " ".join(args))
    def test_subcommand_loads_neither_numpy_nor_networkx(self, tmp_path,
                                                         args):
        code, _out, modules = _run(
            [args[0], _program(args[1])] + args[2:], tmp_path)
        assert code == 0
        assert "numpy" not in modules
        assert "networkx" not in modules

    @pytest.mark.parametrize("args", [
        [],
        ["lint", "die.gcl"],
        ["bounds", "die.gcl"],
        ["infer", "geometric.gcl"],
        ["check", "die.gcl"],
        ["pretty", "die.gcl"],
        ["mcmc", "die.gcl", "-n", "50"],
    ], ids=lambda args: " ".join(args) or "import repro.cli.main")
    def test_batch_engine_stays_unloaded(self, tmp_path, args):
        if args:
            code, _out, modules = _run(
                [args[0], _program(args[1])] + args[2:], tmp_path)
            assert code == 0
        else:
            code = "import repro.cli.main, json, sys\n" \
                   "print(json.dumps(list(sys.modules)))"
            modules = set(json.loads(_child(code, [], _env(tmp_path))))
        assert not modules & set(BATCH_ENGINE)

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    def test_native_sample_loads_only_the_sampler(self, tmp_path):
        args = ["sample", _program("die.gcl"), "-n", "1000", "--seed", "1"]
        code, out, cold = _run(args, tmp_path)
        assert code == 0
        assert "profile:   native" in out
        # Against the store the first run filled: no compile passes.
        code, out, warm = _run(args, tmp_path)
        assert code == 0
        assert "profile:   native" in out
        for modules in (cold, warm):
            assert "numpy" not in modules
            assert "networkx" not in modules
            assert "repro.mcmc" not in modules
        assert "repro.analysis" not in warm
        assert "repro.inference" not in warm

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy absent")
    def test_sample_without_native_loads_numpy(self, tmp_path):
        # The contrapositive of the budget above: when ``auto`` picks the
        # vectorized driver, the probe does see numpy arrive.
        code, out, modules = _run(
            ["sample", _program("die.gcl"), "-n", "1000", "--seed", "1"],
            tmp_path, ZAR_NATIVE_DISABLE="1")
        assert code == 0
        assert "profile:   batch-numpy" in out
        assert "numpy" in modules

    def test_sample_runs_without_networkx(self, tmp_path):
        # networkx is an optional extra: only LoopChain.graph() and
        # recurrent_classes() import it.
        code = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "import repro\n"
            "from repro.cli.main import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "sample", _program("die.gcl"),
             "-n", "100"],
            env=_env(tmp_path), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "samples:   100" in proc.stdout


class TestPublicNames:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_name_is_the_defining_modules_object(self, package):
        module = importlib.import_module(package)
        exports = vars(module)["_EXPORTS"]
        assert set(exports) <= set(module.__all__)
        assert set(module.__all__) <= set(dir(module))
        for name in module.__all__:
            value = getattr(module, name)
            assert not isinstance(value, types.ModuleType), name
            if name in exports:
                defining = importlib.import_module(exports[name])
                assert value is getattr(defining, name), name

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_no_lazy_name_is_a_submodule(self, package):
        module = importlib.import_module(package)
        submodules = {info.name
                      for info in pkgutil.iter_modules(module.__path__)}
        assert not submodules & set(vars(module)["_EXPORTS"])

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        for name in repro.__all__:
            assert namespace[name] is getattr(repro, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(repro, "no_such_name")

    @pytest.mark.parametrize("package, name", COLLISIONS,
                             ids=[".".join(pair) for pair in COLLISIONS])
    def test_collision_name_stays_the_function(self, package, name):
        importlib.import_module("%s.%s" % (package, name))
        module = importlib.import_module(package)
        value = getattr(module, name)
        assert callable(value)
        assert not isinstance(value, types.ModuleType)
        assert value is getattr(sys.modules["%s.%s" % (package, name)], name)
