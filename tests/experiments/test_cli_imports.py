"""What importing and running the experiments CLI loads: nothing it may
never use.

A process that simulates nothing — a warm run served from the store,
``machines``, ``import repro.store`` — must load no simulator model, no
runner, no cache hierarchy and no executor.  Each check runs in a fresh
interpreter, so what an earlier test imported cannot hide a load.
"""

import json
import subprocess
import sys

import pytest

from repro.experiments.cli import main

#: Standard-library modules the CLI import must not load: the pool
#: imports ``multiprocessing`` when it spawns or waits on a worker, and
#: the SVG renderer escapes text itself, so ``xml.sax.saxutils`` (and,
#: through it, ``urllib.request``, ``http.client`` and ``ssl``) stay out.
UNUSED_AT_IMPORT = ("multiprocessing", "xml.sax", "urllib.request", "http.client", "ssl")

#: Packages whose every module is simulator code.
SIMULATOR_PACKAGES = ("repro.pipeline", "repro.core", "repro.baselines")

#: Single modules only a simulating process needs.
SIMULATOR_MODULES = (
    "repro.sim.runner",
    "repro.memory.hierarchy",
    "repro.resilience.executor",
    "repro.resilience.faults",
)

#: A grid naming every built-in machine kind, tiny enough to simulate cold.
SEVEN_KINDS = (
    "r10(rob=32),ooo-bp(bp=gshare-10),kilo(sliq=128),runahead,"
    "limit(rob=64),dual,dkip(llib=512)"
)
SWEEP = ["sweep", "--machines", SEVEN_KINDS, "--workloads", "mcf",
         "--scale", "quick", "--instructions", "400"]

#: Prints, as JSON, every simulator module the lines before it loaded.
_REPORT_LOADED = (
    "import sys\n"
    f"packages, modules = {SIMULATOR_PACKAGES!r}, {SIMULATOR_MODULES!r}\n"
    "print(json.dumps(sorted(name for name in sys.modules if name in modules\n"
    "    or any(name == p or name.startswith(p + '.') for p in packages))))\n"
)


def _run(lines: str) -> list[str]:
    """Run *lines* in a fresh interpreter; return its output lines, the
    last one the JSON list of simulator modules loaded."""
    out = subprocess.run(
        [sys.executable, "-c", "import json\n" + lines + _REPORT_LOADED],
        capture_output=True, text=True, check=True,
    ).stdout
    return out.strip().splitlines()


def test_importing_the_cli_loads_no_pool_or_network_module():
    script = (
        "import sys\n"
        "import repro.experiments.cli\n"
        f"print(sorted(name for name in {UNUSED_AT_IMPORT!r} if name in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_importing_the_cli_or_the_store_loads_no_simulator():
    assert json.loads(_run("import repro.experiments.cli\n")[-1]) == []
    assert json.loads(_run("import repro.store\n")[-1]) == []


def test_a_warm_run_over_every_kind_loads_no_simulator(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main([*SWEEP, "--store", store]) == 0
    assert "0 cells cached, 7 simulated" in capsys.readouterr().out
    lines = _run(
        "from repro.experiments.cli import main\n"
        f"assert main({[*SWEEP, '--store', store]!r}) == 0\n"
    )
    assert any("7 cells cached, 0 simulated" in line for line in lines)
    assert json.loads(lines[-1]) == []


def test_the_machines_listing_loads_no_simulator():
    from repro.machines import machine_kinds

    lines = _run(
        "from repro.experiments.cli import main\n"
        "assert main(['machines']) == 0\n"
    )
    out = "\n".join(lines[:-1])
    kinds = machine_kinds()
    assert list(kinds) == ["r10", "ooo-bp", "kilo", "runahead", "limit", "dual", "dkip"]
    for kind in kinds.values():
        assert kind.grammar in out
    assert json.loads(lines[-1]) == []


def test_the_readme_quickstart_imports_resolve_lazily():
    lines = _run(
        "import repro\n"
        "print(json.dumps(sorted(set(repro.__all__) - set(dir(repro)))))\n"
        "from repro import DKIP_2048, R10_64, get_workload, run_core\n"
        "assert run_core.__module__ == 'repro.sim.runner'\n"
        "assert (DKIP_2048.name, R10_64.name) == ('D-KIP-2048', 'R10-64')\n"
        "assert callable(get_workload)\n"
    )
    assert json.loads(lines[0]) == []  # dir(repro) covers __all__
    # run_core is the runner itself, loaded on first access.
    assert "repro.sim.runner" in json.loads(lines[-1])


@pytest.mark.parametrize(
    "machine, loaded",
    [("dkip(llib=512)", ["ooo"]), ("limit(rob=64)", ["limit"])],
)
def test_one_cell_loads_only_its_own_baselines(machine, loaded):
    """Running one cell in-process imports the models its kind is built
    from, and no other baseline: the D-KIP's Cache Processor is the R10
    core, and the limit core stands alone."""
    lines = _run(
        "from repro.experiments.common import run_cell\n"
        "from repro.machines import parse_machine\n"
        "from repro.memory import DEFAULT_MEMORY\n"
        f"run_cell((parse_machine({machine!r}), 'mcf', DEFAULT_MEMORY, 0), 400)\n"
    )
    names = [name.rsplit(".", 1)[1] for name in json.loads(lines[-1])
             if name.startswith("repro.baselines.")]
    assert names == loaded


def test_the_baselines_package_still_resolves_every_name():
    lines = _run(
        "import repro.baselines as baselines\n"
        "from repro.baselines import limit\n"
        "print(json.dumps(sorted(set(baselines.__all__) - set(dir(baselines)))))\n"
        "assert baselines.simulate_limit is limit.simulate_limit\n"
        "from repro.baselines import KiloCore, R10Core, RunaheadCore\n"
    )
    assert json.loads(lines[0]) == []
    loaded = {name for name in json.loads(lines[-1]) if name.startswith("repro.baselines.")}
    assert loaded == {f"repro.baselines.{name}" for name in ("kilo", "limit", "ooo", "runahead")}
