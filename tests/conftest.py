"""Test-session set-up: the report header names the OpenBLAS kernel core.

The SHA-256 digests in test_gates.py hold under one BLAS kernel only
(SkylakeX), so the header, and the failure message of each digest test
(the blas_core fixture), say which kernel this run used.
"""

import ctypes

import numpy  # noqa: F401  (loads numpy's OpenBLAS into the process)
import pytest


def openblas_core() -> str:
    """The kernel core numpy's OpenBLAS chose (e.g. 'SkylakeX'), read with
    scipy_openblas_get_corename64_ from the OpenBLAS library this process
    has loaded; 'unknown' when there is no such library or call."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
        for path in sorted(paths):
            corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    except OSError:
        pass
    return "unknown"


def pytest_report_header(config):
    return f"openblas core: {openblas_core()}"


@pytest.fixture(scope="session")
def blas_core() -> str:
    return openblas_core()
