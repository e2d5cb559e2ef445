"""The two back ends that step a templated field, write CSV rows and take
the envelope's exp: the compiled kernels and output library, where they
can be built, and the generated Python loop, Python's ``%`` and
:func:`math.exp`, which are the reference."""

import pytest

from asfes import _ckernel

compiler = pytest.mark.skipif(_ckernel._compiler() is None,
                              reason="no C compiler: every run steps in the Python loop")


def use_python_loop(monkeypatch) -> None:
    """Step every run in the Python loop, format every CSV row with
    Python's ``%`` and take every envelope through :func:`math.exp` until
    the test ends, as where no C compiler is found: compiler discovery
    finds nothing, and no kernel or output library loaded before is
    kept."""
    monkeypatch.setattr(_ckernel, "_compiler", lambda: None)
    monkeypatch.setattr(_ckernel, "_loaded", {})
