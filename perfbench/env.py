"""Bind the benchmark to the package in its own checkout, and describe the machine.

Importing this module puts ``<checkout>/src`` first on ``sys.path`` and fails
when that tree is missing, so the benchmark never measures an installed copy
of the package by mistake.  It also drops the ``ITL_MAX_*`` environment
variables, which would silently move the search caps.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckoutError(RuntimeError):
    """The benchmark is not running inside a checkout of the package."""


if not (SRC / "itl" / "__init__.py").is_file():
    raise CheckoutError(f"no package source under {SRC}")
sys.path.insert(0, str(SRC))
for _name in ("ITL_MAX_ATOMS", "ITL_MAX_WORLDS"):
    os.environ.pop(_name, None)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """Commit of the checkout, read from ``.git`` directly; ``unknown`` outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }
