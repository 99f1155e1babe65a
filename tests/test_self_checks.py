"""Internal self-checks raise RuntimeError, and bad input ValueError, as
plain raises that python -O keeps.

Each result check is made to fail by monkeypatching what it checks: the
divisibility solver's witness replay, the one closing product of each
series inverse, the inverse checks of the two truncated models, the
falsifier's constant-stage witnesses, and the power chain's bound on
its length, by a kernel that changes between calls.  The falsifier also
rejects a depth below one and a negative precision.

Each series inverse closes with exactly one product: a one-sided inverse
of a unit is two-sided, so a second product would prove nothing more."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from skewarch import props, rings, skew
from skewarch.endos import build_endo
from skewarch.prng import SplitMix64
from skewarch.rings import construct_ring
from skewarch.skew import (DivisibilityResult, SkewPoly, TruncSeries, geometric_inverse,
                           series_inverse, solve_right_divisibility)

# twisted rings of characteristic 2, at precision 16
TWISTED = [("gf:2:2", "endo:frob"), ("xyq:gf:2:1:N=8", "endo:xsq")]
N = 16


def _twisted(spec, twist):
    """The ring, its twist and a nonzero value the twist moves."""
    ring = construct_ring(spec)
    a = ring.x_v(1) if ring.kind == "xyq" else ring.v_of_text("[0,1]")
    return ring, build_endo(ring, twist), a


def _dense_unit_series(ring, endo, a):
    return TruncSeries(ring, endo, N, [ring.one_v if i % 3 == 0 else a
                                       for i in range(N + 1)])


def test_solver_raises_when_its_witness_fails_the_replay(monkeypatch):
    ring = construct_ring("zmod:6")
    endo = build_endo(ring, "endo:id")
    f, g = (TruncSeries.constant(ring, endo, ring.v_of_text(t), 4) for t in ("2", "2"))
    assert solve_right_divisibility(f, g, 1).status == "found"
    monkeypatch.setattr(TruncSeries, "__eq__", lambda a, b: False)
    with pytest.raises(RuntimeError, match="replay"):
        solve_right_divisibility(f, g, 1)


@pytest.mark.parametrize("spec,twist", TWISTED)
def test_geometric_inverse_raises_when_its_sum_misses_a_window(monkeypatch, spec, twist):
    ring, endo, a = _twisted(spec, twist)
    f = SkewPoly(ring, endo, [ring.one_v, a])          # 1 + f*u = 1 + u + a*u^2
    assert not geometric_inverse(f, N).terminated
    windows, dropped = skew.power_windows, []

    def without_the_square(g, precision):
        # in characteristic 2 every window is added, so skipping the
        # window of g^2 leaves the sign of each later window as it was
        for k, window in enumerate(windows(g, precision), 1):
            if k == 2:
                dropped.append(window)
            else:
                yield window

    monkeypatch.setattr(skew, "power_windows", without_the_square)
    with pytest.raises(RuntimeError, match=r"geometric expansion failed to invert 1 \+ f\*u"):
        geometric_inverse(f, N)
    assert any(c != ring.zero_v for c in dropped[0])


@pytest.mark.parametrize("spec,twist", TWISTED)
def test_series_inverse_raises_when_its_top_coefficient_is_wrong(monkeypatch, spec, twist):
    ring, endo, a = _twisted(spec, twist)
    g = _dense_unit_series(ring, endo, a)
    series_inverse(g)
    solve = skew.window_inverse

    def off_at_the_top(base, coeffs, twist=None):
        h = solve(base, coeffs, twist)
        h[-1] = base.k_add(h[-1], base.one_v)
        return h

    monkeypatch.setattr(skew, "window_inverse", off_at_the_top)
    with pytest.raises(RuntimeError, match="series inversion check failed"):
        series_inverse(g)


@pytest.mark.parametrize("spec,twist", TWISTED)
def test_each_series_inverse_closes_with_one_product(monkeypatch, spec, twist):
    ring, endo, a = _twisted(spec, twist)
    f = SkewPoly(ring, endo, [ring.one_v, a])
    g = _dense_unit_series(ring, endo, a)
    products, mul = [], TruncSeries.__mul__

    def counted(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(TruncSeries, "__mul__", counted)
    series_inverse(g)
    assert len(products) == 1
    products.clear()
    skew._inverse_of_one_plus(f.shift(1), N)
    assert len(products) == 1


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


def test_power_chain_raises_when_its_sets_never_repeat():
    # a kernel that depends on how often it was called: the first 4
    # products are x % 2, then x % 2 + 2 and x % 2 alternate, two calls
    # each, so the chain of 2 alternates between {0, 1} and {2, 3}.  A
    # kernel that is a function of its arguments only shrinks the chain.
    ring = rings.ZmodRing(4)
    calls = [0]

    def drifting(x, y):
        calls[0] += 1
        late = calls[0] > 4 and (calls[0] - 5) % 4 < 2
        return x % 2 + 2 * late

    ring.k_mul = drifting
    with pytest.raises(RuntimeError, match="^power chain failed to stabilize$"):
        rings.principal_power_chain(ring, ring.element(2))
    assert calls[0] == 14


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
