"""What a fresh process loads, and that lazy exports are the real objects.

Every package loads its exports on first use (:mod:`repro._lazy`), so a
short process pays only for the layers it runs.  These guards count the
modules a fresh interpreter has imported after each entry path — a
count, not a timing, so they are deterministic — and check that every
lazily resolved name is the object its defining module holds.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

PACKAGES = ("repro", "repro.backend", "repro.chaos", "repro.core",
            "repro.datapath", "repro.elastic", "repro.lint", "repro.netlist",
            "repro.perf", "repro.runtime", "repro.serve", "repro.sim",
            "repro.tech", "repro.transform", "repro.verif")

#: layers neither a client nor ``--help`` may load
SIMULATION_LAYERS = ("repro.sim", "repro.elastic", "repro.verif", "repro.perf")

#: prints the ``repro`` modules and the heavy stdlib packages loaded
REPORT = (
    "import json, sys\n"
    "print(json.dumps({'repro': sorted(m for m in sys.modules\n"
    "                                  if m.split('.')[0] == 'repro'),\n"
    "                  'stdlib': sorted(m for m in ('asyncio',\n"
    "                                   'multiprocessing') if m in sys.modules)}))\n"
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _fresh(code, args=()):
    """Run ``code`` in a fresh interpreter; the last stdout line, parsed
    as JSON."""
    out = subprocess.run([sys.executable, "-c", code, *args], env=_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _within(modules, layers):
    return sorted(m for m in modules
                  if any(m == layer or m.startswith(layer + ".")
                         for layer in layers))


def test_import_repro_loads_no_subpackage():
    loaded = _fresh("import repro\n" + REPORT)
    assert loaded["repro"] == ["repro", "repro._lazy"]
    assert loaded["stdlib"] == []


#: the modules defining node kinds
NODE_KIND_MODULES = tuple(
    [f"repro.elastic.{m}" for m in ("buffers", "fork", "functional", "eemux",
                                    "environment", "varlat")]
    + ["repro.core.shared", "repro.core.scheduler"])


def test_codegen_backend_loads_no_node_kind():
    """The compiled engine renders each node's methods from their source:
    it names no node kind, so importing it loads none."""
    loaded = _fresh("import repro.backend.pysim\n" + REPORT)
    assert "repro.backend.pysim" in loaded["repro"]
    assert [m for m in NODE_KIND_MODULES if m in loaded["repro"]] == []


def test_method_renderer_loads_no_node_kind():
    """The renderer both engines derive from (comb's sensitivity, the
    compiled templates) reads node kinds' source: it names none."""
    loaded = _fresh("import repro.sim.inline\n" + REPORT)
    assert "repro.sim.inline" in loaded["repro"]
    assert [m for m in NODE_KIND_MODULES if m in loaded["repro"]] == []
    assert "repro.backend.pysim" not in loaded["repro"]


def test_serial_worklist_sweep_loads_no_codegen_backend():
    """The worklist engine derives wake-up sets from the renderer alone:
    a worklist sweep never imports the compiled engine."""
    code = (
        "from repro.perf.presets import PRESET_SWEEPS\n"
        "from repro.perf.sweep import run_sweep\n"
        "spec = PRESET_SWEEPS['fig6']()\n"
        "spec.cycles, spec.warmup = 40, 5\n"
        "assert run_sweep(spec, n_workers=1, engine='worklist').rows\n"
        + REPORT)
    loaded = _fresh(code)
    assert "repro.sim.inline" in loaded["repro"]
    assert "repro.backend.pysim" not in loaded["repro"]


def test_client_loads_no_simulation_asyncio_or_multiprocessing():
    loaded = _fresh("import repro.serve.client\n" + REPORT)
    assert _within(loaded["repro"], SIMULATION_LAYERS) == []
    assert "repro.serve.server" not in loaded["repro"]
    assert "repro.serve.jobs" not in loaded["repro"]
    assert loaded["stdlib"] == []


def test_cli_help_loads_no_simulation_asyncio_or_multiprocessing():
    code = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0\n" + REPORT)
    loaded = _fresh(code)
    assert _within(loaded["repro"], SIMULATION_LAYERS) == []
    assert loaded["stdlib"] == []


@pytest.mark.parametrize("argv", [["status"], ["lint", "--design", "fig1a"]])
def test_client_subcommands_load_only_the_client(tmp_path, argv):
    """``repro submit`` against a live server loads the client and
    nothing heavier, whatever the job runs on the server."""
    from test_serve import running_server

    code = (
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['submit', *json.loads(sys.argv[1])]) == 0\n"
        + REPORT)
    with running_server(tmp_path):
        loaded = _fresh(code, [json.dumps([*argv, "--root", str(tmp_path)])])
    assert _within(loaded["repro"], SIMULATION_LAYERS) == []
    assert "repro.serve.client" in loaded["repro"]
    assert loaded["stdlib"] == []


def test_serial_sweep_and_exploration_load_no_multiprocessing():
    code = (
        "from repro.designs import build_mc_design\n"
        "from repro.perf.presets import PRESET_SWEEPS\n"
        "from repro.perf.sweep import run_sweep\n"
        "from repro.verif.explore import StateExplorer\n"
        "spec = PRESET_SWEEPS['fig1']()\n"
        "spec.cycles, spec.warmup = 40, 5\n"
        "assert run_sweep(spec, n_workers=1).rows\n"
        "assert StateExplorer(build_mc_design('eb')).explore().complete\n"
        + REPORT)
    loaded = _fresh(code)
    assert "repro.runtime.supervisor" in loaded["repro"]   # its stats
    assert loaded["stdlib"] == []


def test_started_server_loads_no_job_layer_before_its_first_job():
    code = (
        "import asyncio, tempfile, threading\n"
        "from repro.serve.client import ServeClient\n"
        "from repro.serve.server import JobServer\n"
        "root = tempfile.mkdtemp()\n"
        "server = JobServer(root)\n"
        "ready = threading.Event()\n"
        "thread = threading.Thread(\n"
        "    target=lambda: asyncio.run(server.run(ready=ready)))\n"
        "thread.start()\n"
        "assert ready.wait(30)\n"
        "client = ServeClient(root=root, timeout=60)\n"
        "assert client.status()['type'] == 'status'\n"
        + REPORT.replace("import json, sys\n", "import json, sys\n"
                         "client.shutdown()\n"
                         "thread.join(30)\n"))
    loaded = _fresh(code)
    heavy = ("repro.perf", "repro.lint", "repro.transform", "repro.backend")
    assert _within(loaded["repro"], heavy + SIMULATION_LAYERS) == []
    assert loaded["stdlib"] == ["asyncio"]


# -- the lazy exports ------------------------------------------------------------

#: exports that are neither classes, functions nor modules, so carry no
#: ``__module__``: the module that defines each
CONSTANTS = {
    "ALL_RULES": "repro.lint.runner",
    "ALU_OPS": "repro.datapath.alu",
    "CODES": "repro.lint.diagnostics",
    "CONSUMER": "repro.elastic.channel",
    "DEFAULT_RULES": "repro.lint.runner",
    "DEFAULT_TECH": "repro.tech.library",
    "ENGINES": "repro.sim.engine",
    "FAULT_KINDS": "repro.chaos.plan",
    "JOB_KINDS": "repro.serve.jobs",
    "PRODUCER": "repro.elastic.channel",
    "RULES": "repro.lint.rules",
    "SEVERITY_ERROR": "repro.lint.diagnostics",
    "SEVERITY_WARNING": "repro.lint.diagnostics",
    "__version__": "repro",
}


def test_every_export_is_its_defining_modules_object():
    """In a fresh process: each name in a package's ``__all__`` resolves
    to the object its defining module holds, each submodule attribute to
    the imported submodule, ``from package import *`` binds them all, and
    an unknown name raises ``AttributeError``."""
    code = (
        "import importlib, json, pkgutil, sys, types\n"
        f"packages = {PACKAGES!r}\n"
        f"constants = {CONSTANTS!r}\n"
        "bad = []\n"
        "for name in packages:\n"
        "    package = importlib.import_module(name)\n"
        "    for export in package.__all__:\n"
        "        value = getattr(package, export)\n"
        "        if isinstance(value, types.ModuleType):\n"
        "            ok = value.__name__.rpartition('.')[2] == export\n"
        "        elif export in constants:\n"
        "            home = importlib.import_module(constants[export])\n"
        "            ok = getattr(home, export) is value\n"
        "        else:\n"
        "            home = sys.modules[value.__module__]\n"
        "            ok = (value.__name__ == export\n"
        "                  and getattr(home, export) is value)\n"
        "        if not ok or export not in dir(package):\n"
        "            bad.append(f'{name}.{export}')\n"
        "    for info in pkgutil.iter_modules(package.__path__):\n"
        "        if info.name.startswith('__'):\n"
        "            continue\n"
        "        sub = getattr(package, info.name)\n"
        "        if sub is not sys.modules[f'{name}.{info.name}']:\n"
        "            bad.append(f'{name}.{info.name}')\n"
        "    for missing in ('no_such_name', '__wrapped__'):\n"
        "        try:\n"
        "            getattr(package, missing)\n"
        "        except AttributeError as exc:\n"
        "            assert missing in str(exc), exc\n"
        "        else:\n"
        "            bad.append(f'{name}.{missing} resolved')\n"
        "    star = {}\n"
        "    exec(f'from {name} import *', star)\n"
        "    if sorted(set(star) - {'__builtins__'}) != sorted(package.__all__):\n"
        "        bad.append(f'from {name} import *')\n"
        "print(json.dumps(bad))\n")
    assert _fresh(code) == []


def test_repro_exports_the_quick_start_names():
    """The names the package docstring's quick start and earlier eager
    ``__init__`` offered are all still there."""
    code = (
        "import json, repro\n"
        "from repro import patterns, Simulator\n"
        "from repro.sim import TraceRecorder, format_trace_table\n"
        "net, names = patterns.table1_design()\n"
        "trace = TraceRecorder([names['fin0'], names['fout0'],\n"
        "                       names['fin1'], names['fout1']])\n"
        "Simulator(net, observers=[trace]).run(7)\n"
        "print(json.dumps([repro.errors.__name__, repro.netlist.__name__,\n"
        "                  format_trace_table(trace).splitlines()[1]]))\n")
    assert _fresh(code) == ["repro.errors", "repro.netlist",
                            "fin0        A - C - E F F"]
