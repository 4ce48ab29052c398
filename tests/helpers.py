"""Helpers shared by the test modules that start the package in a subprocess."""

from __future__ import annotations

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def src_env(*drop: str) -> dict[str, str]:
    """This environment with ``src`` as ``PYTHONPATH``, so that a subprocess
    imports the package from this checkout whether or not it is installed;
    ``drop`` names variables to leave out."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = SRC
    return env
