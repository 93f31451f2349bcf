"""What importing the experiments CLI loads: nothing it may never use."""

import subprocess
import sys

#: Standard-library modules the CLI import must not load: the pool
#: imports ``multiprocessing`` when it spawns or waits on a worker, and
#: the SVG renderer escapes text itself, so ``xml.sax.saxutils`` (and,
#: through it, ``urllib.request``, ``http.client`` and ``ssl``) stay out.
UNUSED_AT_IMPORT = ("multiprocessing", "xml.sax", "urllib.request", "http.client", "ssl")


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
