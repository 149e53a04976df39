"""Child interpreters that tests start import the package from ``src/``.

``pyproject.toml`` puts ``src/`` on the test process's own path; a test
that runs ``sys.executable`` needs it in ``PYTHONPATH`` as well.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
