"""Import guard: ``rff`` and pool workers load no heavy third-party package.

``scipy`` (p-values) and ``networkx`` (lock-order cycles) are imported on
first use, and ``repro.harness`` resolves its public names lazily, so a
fresh ``import repro.cli``, a pool worker's ``import repro.harness.pool``
and a whole ``rff fuzz`` run never load them.  Each check runs in a fresh
interpreter, because this test process may already hold those modules.

Needs no third-party package: ``python tests/test_imports.py`` runs every
check without pytest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages no ``rff`` command needs on its normal path.
HEAVY = ("scipy", "numpy", "networkx")


def _heavy_modules_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return the ``HEAVY`` packages
    it left in ``sys.modules``."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        f"print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_cli_loads_no_heavy_package():
    assert _heavy_modules_after("import repro.cli") == []


def test_import_pool_loads_no_heavy_package():
    assert _heavy_modules_after("import repro.harness.pool") == []


def test_rff_fuzz_run_loads_no_heavy_package():
    code = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['fuzz', 'CS/token_ring', '--budget', '200'])\n"
    )
    assert _heavy_modules_after(code) == []


def test_every_harness_export_resolves_lazily():
    code = (
        "import sys\n"
        "import repro.harness as harness\n"
        "from repro.harness import _EXPORTS\n"
        "assert sorted(harness.__all__) == sorted(_EXPORTS)\n"
        "assert not set(harness.__all__) & set(vars(harness))\n"
        "for name in harness.__all__:\n"
        "    value = getattr(harness, name)\n"
        "    home = sys.modules['repro.harness.' + _EXPORTS[name]]\n"
        "    assert getattr(home, name) is value, name\n"
    )
    # Even the whole public surface, loaded, computes no p-value.
    assert _heavy_modules_after(code) == []


def test_from_harness_import_submodule_and_star():
    code = (
        "import sys\n"
        "from repro.harness import faults\n"
        "assert faults is sys.modules['repro.harness.faults']\n"
        "from repro.harness import *  # noqa: F403\n"
        "assert Campaign.__module__ == 'repro.harness.campaign'  # noqa: F405\n"
        "assert 'Campaign' in dir(sys.modules['repro.harness'])\n"
    )
    assert _heavy_modules_after(code) == []


if __name__ == "__main__":
    for name, check in sorted(globals().items()):
        if name.startswith("test_") and callable(check):
            check()
            print(f"ok  {name}")
