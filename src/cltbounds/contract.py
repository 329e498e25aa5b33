"""What the CLI promises before it computes anything, on the standard library
alone: the error types that map to its exit codes, the report schema and
the version string.  ``core``, ``subspaces`` and ``certify`` re-export the
names they raise or write, so their import paths stay as they were."""

from __future__ import annotations

import functools
import subprocess
from pathlib import Path

from . import __version__

__all__ = [
    "InapplicableBoundError",
    "InsufficientDataError",
    "REPORT_SCHEMA",
    "SymmetryError",
    "version_string",
]

REPORT_SCHEMA = 1  # the layout of certify.json; raised when a key goes or changes meaning


class InsufficientDataError(ValueError):
    """Raised when an estimator needs more samples than were provided."""


class SymmetryError(ValueError):
    """The law lacks the symmetry an exchangeable-pair diagnostic needs."""


class InapplicableBoundError(ValueError):
    """No theoretical bound with explicit constants applies to this spec."""


@functools.cache
def version_string() -> str:
    """git-describe of the source checkout that holds this package (the
    directory two above the package, with its own ``.git``) when there is
    one, else the package version: an installed copy inside another git
    work tree, or a caller in one, never names that tree's commit.  The
    ``git`` child runs once per process, at the first call."""
    root = Path(__file__).resolve().parents[2]
    if not (root / ".git").exists():
        return f"cltbounds {__version__}"
    try:
        out = subprocess.run(
            ["git", f"--git-dir={root / '.git'}", f"--work-tree={root}",
             "describe", "--always", "--dirty"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"cltbounds {__version__} ({out.stdout.strip()})"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"cltbounds {__version__}"
