"""Import-cost guard: the package and its CLI must not pull in scipy.

Importing ``scipy.sparse.linalg`` costs about a quarter of a second and tens
of megabytes of resident memory, which every CLI call would pay.  Any future
scipy use has to be imported lazily inside the function that needs it.
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
