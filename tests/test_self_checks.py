"""Internal self-checks raise RuntimeError, and bad input ValueError, as
plain raises that python -O keeps.

Each result check is made to fail by monkeypatching what it checks: the
divisibility solver's witness replay, the inverse checks of the two
truncated models, and the falsifier's constant-stage witnesses.  The
falsifier also rejects a depth below one and a negative precision."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from skewarch import props, rings
from skewarch.endos import build_endo
from skewarch.prng import SplitMix64
from skewarch.rings import construct_ring
from skewarch.skew import DivisibilityResult, TruncSeries, solve_right_divisibility


def test_solver_raises_when_its_witness_fails_the_replay(monkeypatch):
    ring = construct_ring("zmod:6")
    endo = build_endo(ring, "endo:id")
    f, g = (TruncSeries.constant(ring, endo, ring.v_of_text(t), 4) for t in ("2", "2"))
    assert solve_right_divisibility(f, g, 1).status == "found"
    monkeypatch.setattr(TruncSeries, "__eq__", lambda a, b: False)
    with pytest.raises(RuntimeError, match="replay"):
        solve_right_divisibility(f, g, 1)


@pytest.mark.parametrize("spec", ["tser(zmod:4,N=3)", "xyq:gf:2:1:N=4"])
def test_truncated_inverse_raises_when_its_check_fails(monkeypatch, spec):
    ring = construct_ring(spec)
    assert ring.is_unit_v(ring.one_v) == ring.one_v
    monkeypatch.setattr(rings, "window_inverse",
                        lambda base, g, twist=None: [base.zero_v] * len(g))
    with pytest.raises(RuntimeError, match="inverse"):
        ring.is_unit_v(ring.one_v)


def test_falsifier_raises_when_a_constant_stage_witness_is_missing(monkeypatch):
    ring = construct_ring("zmod:6")
    endo = build_endo(ring, "endo:id")
    monkeypatch.setattr(props, "solve_right_divisibility",
                        lambda *args, **kwargs: DivisibilityResult("none", None, 0, ""))
    with pytest.raises(RuntimeError, match="constant-stage"):
        props.archimedean_falsifier(ring, endo, seed=0)


@pytest.mark.parametrize("spec,twist", [("zmod:6", "endo:id"), ("zmod:8", "endo:id"),
                                        ("xyq:gf:2:1:N=8", "endo:xsq")])
@pytest.mark.parametrize("kwargs", [{"depth": 0}, {"depth": -1},
                                    {"precision": -2, "budget": 3},
                                    {"precision": -2, "budget": 10_000}])
def test_falsifier_rejects_a_depth_below_one_and_a_negative_precision(spec, twist, kwargs):
    ring = construct_ring(spec)
    with pytest.raises(ValueError, match="falsifier"):
        props.archimedean_falsifier(ring, build_endo(ring, twist), seed=0, **kwargs)


@pytest.mark.parametrize("n", [0, -3])
def test_below_rejects_a_bound_that_is_not_positive(n):
    with pytest.raises(ValueError):
        SplitMix64(7).below(n)


def test_below_rejects_a_negative_bound_under_python_O():
    code = ("from skewarch.prng import SplitMix64\n"
            "try:\n    SplitMix64(7).below(-3)\n"
            "except ValueError:\n    print('raised')\n")
    env = {**os.environ, "PYTHONPATH": str(Path(rings.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True, env=env)
    assert out.stdout == "raised\n"
