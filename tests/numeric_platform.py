"""The numeric platform that output pins were recorded on.

A pinned hash holds only where numpy computes the same bits. The scenario
pins follow numpy's ``Generator`` algorithms, so they are bound to the numpy
version. The outputs of runs that train classifiers are also bound to the
SIMD kernels numpy dispatches for ``exp`` and ``log`` and to the BLAS kernel
behind a stacked ``@``: without AVX-512 or without FMA they round otherwise.
A pin mismatch names both the platform a pin was recorded on and the one
the test ran on.
"""

import ctypes
from pathlib import Path

import numpy as np

try:
    from numpy.lib.introspect import opt_func_info
except ImportError:  # numpy < 2.0
    def opt_func_info(**_):
        return {}

#: ``numeric_platform()`` where the pins of ``test_shipped``,
#: ``test_workload_pins`` and ``test_scenario_pins`` were recorded.
RECORDED = {
    "numpy": "2.4.6",
    "simd": {"exp": "X86_V4", "log": "X86_V4", "tanh": "X86_V4"},
    "blas_core": "SkylakeX",
}


def blas_core() -> str:
    """The kernel family OpenBLAS dispatched to, or ``"unknown"`` for a numpy
    that does not bundle scipy-openblas."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def numeric_platform() -> dict:
    """The numpy version, the SIMD target dispatched for float64 ``exp``,
    ``log`` and ``tanh``, and the OpenBLAS core of this process."""
    info = opt_func_info(func_name="^(exp|log|tanh)$", signature="float64")
    return {
        "numpy": np.__version__,
        "simd": {name: info.get(name, {}).get("dd", {}).get("current", "unknown")
                 for name in ("exp", "log", "tanh")},
        "blas_core": blas_core(),
    }


def platform_note() -> str:
    """A pin mismatch's message: the recorded and the running platform."""
    return f"pins recorded on {RECORDED}; this run is on {numeric_platform()}"
