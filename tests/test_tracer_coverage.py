"""Every public function the benchmark's tracer wraps has a traced home.

`perfbench/tracer.py` wraps each public function found in the spikedse
modules it lists in `MODULES` and books its self time under the module
the function is defined in. A public function whose home module is not
listed (say, a helper in `errors.py` imported by `dse.py`) makes every
traced run fail with a KeyError. The list is read from the tracer's
source with `ast`, so the check runs without importing the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

from spikedse import dse, errors

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_modules() -> tuple[str, ...]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "MODULES" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no MODULES")


def stray_functions(modules: tuple[str, ...]) -> list[str]:
    """Public spikedse functions reachable in the listed modules whose
    home module is not listed, as the tracer would find them."""
    stray = []
    for name in modules:
        module = importlib.import_module(f"spikedse.{name}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            home = value.__module__
            if home.startswith("spikedse.") and home.split(".")[1] not in modules:
                stray.append(f"spikedse.{name}.{attr} (defined in {home})")
    return stray


def test_tracer_lists_the_home_of_every_public_function():
    modules = tracer_modules()
    assert "network" in modules and "errors" not in modules
    assert stray_functions(modules) == []


def test_a_stray_public_helper_is_reported(monkeypatch):
    monkeypatch.setattr(dse, "check_keys", errors._check_keys, raising=False)
    assert stray_functions(tracer_modules()) == [
        "spikedse.dse.check_keys (defined in spikedse.errors)"]
