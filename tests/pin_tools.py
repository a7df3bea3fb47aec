"""Shared tooling for the pin files under tests/data.

record() writes a freshly computed pin mapping and prints every key it
adds, changes or drops, as old -> new, so that a change that re-records
pins can list exactly the keys it moved.

blas_note() names the OpenBLAS kernel the BLAS-dependent pins were
recorded on and the one running now.  numpy's bundled OpenBLAS picks its
kernel from the CPU when it loads, and LAPACK's QR and dgemm round
differently per kernel, so the orthogonal factor V and the product Y of an
OMF instance, and the defects printed from them, hold only on the kernel
they were recorded on.

numpy_note() names the numpy release the stream pins were recorded on and
the one running now: numpy's stream policy (NEP 19) lets SeedSequence,
Philox and the geometric sampler change between releases, and with them
every drawn value.
"""

from __future__ import annotations

import ctypes
import json
from pathlib import Path

RECORDED_BLAS_CORE = "SkylakeX"
RECORDED_NUMPY = "2.4.6"


def blas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS runs, or None if it has no such library.

    The scipy-openblas library in numpy's wheel exports
    scipy_openblas_get_corename64_; loading it again returns the copy numpy
    already loaded.  Another BLAS, or a numpy without the bundled library,
    gives None.
    """
    import numpy

    for path in sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = (), ctypes.c_char_p
        return corename().decode()
    return None


def blas_note() -> str:
    """Where a BLAS-dependent pin was recorded and where it now runs."""
    return f"recorded on {RECORDED_BLAS_CORE}, running on {blas_core() or 'an unnamed BLAS'}"


def numpy_note() -> str:
    """Which numpy release the stream pins were recorded on and which one runs now."""
    import numpy

    return f"recorded on numpy {RECORDED_NUMPY}, running on numpy {numpy.__version__}"


def _flat(pins: dict, prefix: str = "") -> dict[str, object]:
    # Nested mappings as one level of "outer / inner" keys.
    flat: dict[str, object] = {}
    for key, value in pins.items():
        if isinstance(value, dict):
            flat.update(_flat(value, f"{prefix}{key} / "))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def record(path: Path, pins: dict) -> None:
    """Write pins to path as JSON, printing each key added, changed or dropped."""
    old = _flat(json.loads(path.read_text(encoding="utf-8"))) if path.exists() else {}
    new = _flat(pins)
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            change = "added" if key not in old else "dropped" if key not in new else "changed"
            print(f"{change} {key}: {old.get(key)!r} -> {new.get(key)!r}")
    path.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
