"""The verdicts of ``tools/bench_pairs.py`` on crafted runs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def verdict():
    path = os.path.join(ROOT, "tools", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.verdict


LOWER = {"better": "lower", "bound": 0.25}
HIGHER = {"better": "higher", "bound": 0.25}
STEADY = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]


def scaled(values, factor):
    return [v * factor for v in values]


def test_a_median_past_its_bound_is_worse(verdict):
    assert verdict(LOWER, STEADY, scaled(STEADY, 1.3)) == "worse"
    assert verdict(HIGHER, STEADY, scaled(STEADY, 1 / 1.4)) == "worse"
    # Within the bound, or worse in the other direction, it is not.
    assert verdict(LOWER, STEADY, scaled(STEADY, 1.2)) == "ok"
    assert verdict(HIGHER, STEADY, scaled(STEADY, 1.3)) == "ok"


def test_a_wide_spread_leaves_the_verdict_unresolved(verdict):
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0, 0.5, 1.5]
    assert verdict(LOWER, wide, scaled(STEADY, 0.4)) == "ok"       # every run beats
    assert verdict(LOWER, wide, STEADY) == "unresolved"
    assert verdict(LOWER, STEADY, wide) == "unresolved"            # either side
    assert verdict(HIGHER, wide, scaled(STEADY, 2.0)) == "ok"
    assert verdict(HIGHER, STEADY, wide) == "unresolved"


def test_a_median_past_its_bound_is_worse_however_wide(verdict):
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0, 0.5, 1.5]
    assert verdict(LOWER, STEADY, scaled(wide, 1.5)) == "worse"


def test_steady_equal_runs_are_ok(verdict):
    assert verdict(LOWER, STEADY, STEADY) == "ok"
    assert verdict(LOWER, [0.0] * 10, [0.0] * 10) == "ok"
