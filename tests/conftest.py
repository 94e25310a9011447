"""Session-wide test settings: name the BLAS arithmetic the run held under.

Several tests pin matmul results bit for bit, and those bits depend on the
OpenBLAS kernel numpy picks at run time for this CPU, which its build
configuration does not say. The line is printed when collection finishes
rather than in the session header, because `-q` hides the header.
"""

import ctypes
import glob
import os

import numpy as np


def _openblas_core() -> str:
    """'<build config>, core <kernel>' of numpy's bundled scipy-openblas, or 'unknown'."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(path)
            info = []
            for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_corename64_"):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                info.append(fn().decode())
        except (OSError, AttributeError):
            continue
        return f"{info[0].strip()}, core {info[1]}"
    return "unknown"


def pytest_report_collectionfinish(config, start_path, items):
    return f"numpy {np.__version__} BLAS: {_openblas_core()}"
