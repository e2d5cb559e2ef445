"""The two back ends that step a templated field: its C kernel, where one
can be built, and the generated Python loop, which is the reference."""

from asfes import _ckernel


def use_python_loop(monkeypatch) -> None:
    """Step every run in the Python loop until the test ends, as where no
    C compiler is found: compiler discovery finds nothing, and no kernel
    loaded before is kept."""
    monkeypatch.setattr(_ckernel, "_compiler", lambda: None)
    monkeypatch.setattr(_ckernel, "_loaded", {})
