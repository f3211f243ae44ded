"""Makes ``import lakempc`` load the package from this checkout's ``src/``."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def use_checkout_source() -> None:
    """Put ``src/`` first on sys.path and fail unless lakempc comes from there."""
    sys.path.insert(0, str(SRC))
    try:
        import lakempc
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import lakempc from {SRC}: {exc}") from None
    where = Path(lakempc.__file__).resolve().parent
    if where != SRC / "lakempc":
        raise SystemExit(f"perfbench: lakempc imported from {where}, not from {SRC}")
