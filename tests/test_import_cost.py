"""Import-cost guard: the package and its CLI must not pull in scipy.

Importing ``scipy.linalg`` or ``scipy.sparse.linalg`` costs about a quarter
of a second and 26-30 MB of resident memory, which every CLI call would pay.
No part of the package needs scipy: below ``spectral.LANCZOS_MIN_NODES``
nodes the balance measures and heuristic frustration use dense numpy solves,
and from that size on a numpy Lanczos iteration on the edge arrays.
"""

import os
import subprocess
import sys
from pathlib import Path

import signednet


def test_import_leaves_no_scipy_module():
    src = str(Path(signednet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, signednet, signednet.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
