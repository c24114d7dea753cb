"""The trajectory grid of ``tools/trajectory_grid.py`` against its pin.

``tests/trajectory_grid.json`` holds the grid's digests; the tool's
docstring says what is held bitwise and what to criterion 05's bound.
The grid runs twice: its dense stages on the compiled loop where they can
take it, then all on the numpy skeleton.  After a change that moves the
grid on purpose, regenerate the pin with
``python tools/trajectory_grid.py pin`` and name the moved configurations
and the reason in CHANGES.md.
"""

import importlib.util
import json
import os
import warnings

from dasvrda import stage_loop

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_grid():
    path = os.path.join(ROOT, "tools", "trajectory_grid.py")
    spec = importlib.util.spec_from_file_location("trajectory_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_grid():
    """Hold the grid to its pin; the paths its dense stages took."""
    grid = load_grid()
    with open(grid.PIN) as handle:
        pinned = json.load(handle)
    with stage_loop.noting() as paths:
        results = grid.collect()
    lines, broken, moved_lazy = grid.check(pinned, results)
    summary = "\n".join(lines)
    assert not broken, f"{len(broken)} keys break the pin:\n{summary}"
    if moved_lazy:
        warnings.warn(f"{len(moved_lazy)} lazy configurations moved within "
                      f"criterion 05's bound:\n{summary}")
    return paths


def test_trajectory_grid_matches_its_pin(compiled_loop):
    assert check_grid() == {"compiled"}


def test_trajectory_grid_matches_its_pin_on_the_numpy_skeleton(monkeypatch):
    monkeypatch.setattr(stage_loop, "COMPILED", False)
    assert check_grid() == {"numpy: compiled loop off"}
