"""Frozen outputs: the report bytes of the full matrix at seed 42, the
full verdicts (flag, witness, exactness, note) of the six coefficient
predicates, and the model conditions and classification built on them.
Most predicate notes and condition parts never reach a report, so only
the last two tests guard them."""

import hashlib
import json

import pytest

from skewarch.endos import (build_endo, is_compatible, is_injective,
                            is_rigid, preserves_nonunits)
from skewarch.props import classify, poly_ring_conditions, series_ring_conditions
from skewarch.rings import Element, construct_ring, is_domain, is_reduced

GOLDEN_JSON = ("5e93f34048e1b2bfea9733a1d01d51b0ba542bd775ecc17ddf63c5dfb14c84dc",
               166_283)
GOLDEN_EXPLAIN = ("fba156199c162d29d9619863fc5c84c434ad647d4611daf377ef149f9a8d34d2",
                  117_301)
GOLDEN_CONDITIONS = ("1e68695622a73b36e2e2d5a4fa4ad6efb932e7b7c9e6baafde4665984e628bea",
                     46_881)


def _digest(text: str):
    data = text.encode("utf-8")
    return hashlib.sha256(data).hexdigest(), len(data)


def test_full_matrix_report_bytes_frozen(seed42_matrix):
    assert _digest(seed42_matrix.json) == GOLDEN_JSON
    assert _digest(seed42_matrix.explain) == GOLDEN_EXPLAIN


EXHAUSTIVE_HOLDS = {
    "reduced": (True, None, True, "exhaustive square scan"),
    "domain": (True, None, True, "exhaustive pair scan"),
    "injective": (True, None, True, "exhaustive image scan"),
    "rigid": (True, None, True, "exhaustive scan of a*alpha(a)"),
    "compatible": (True, None, True, "exhaustive pair scan"),
    "preserves_nonunits": (True, None, True, "exhaustive nonunit scan"),
}


def _scope_holds(s, pair_s=None):
    return {
        "reduced": (True, None, False, "scope-exact square scan, support <= %d" % s),
        "domain": (True, None, False, "scope-exact pair scan, support <= %d" % s),
        "injective": (True, None, False, "scope-exact image scan, support <= %d" % s),
        "rigid": (True, None, False,
                  "scope-exact scan of a*alpha(a), support <= %d" % s),
        "compatible": (True, None, False, "scope-exact pair scan, support <= %d"
                       % (s if pair_s is None else pair_s)),
        "preserves_nonunits": (True, None, False,
                               "scope-exact nonunit scan, support <= %d" % s),
    }


def _zero_divisor(a, b):
    return {"domain": (False, (a, b), True, "zero product witness")}


_XY_ZERO_PRODUCT = ("([0];[[0],[0],[0],[0],[0],[0],[0],[0]];"
                    "[[0],[0],[0],[1],[0],[0],[0],[0]])",
                    "([0];[[0],[0],[0],[1],[0],[0],[0],[0]];"
                    "[[0],[0],[0],[0],[0],[0],[0],[0]])")
_XY = {**_scope_holds(4, pair_s=3),
       "domain": (False, _XY_ZERO_PRODUCT, False,
                  "zero product (exact in widened model)")}
_TSER_Z4 = {**_scope_holds(3, pair_s=2),
            "reduced": (False, "[0,0,0,2,0,0,0]", False,
                        "square-zero witness (exact in widened model)"),
            "domain": (False, ("[0,0,0,2,0,0,0]", "[0,0,0,2,0,0,0]"), False,
                       "zero product (exact in widened model)"),
            "rigid": (False, {"a": "[0,0,0,2,0,0,0]"}, False,
                      "a*alpha(a) = 0 in the widened model")}


def _not_reduced(a):
    return {"reduced": (False, a, True, "square-zero witness"),
            "rigid": (False, {"a": a}, True, "a*alpha(a) = 0 with a != 0")}


# recorded before the exact and scope scans were merged into one loop
PINNED_VERDICTS = {
    ("zmod:6", "endo:id"): {**EXHAUSTIVE_HOLDS, **_zero_divisor("2", "3")},
    ("zmod:8", "endo:id"): {**EXHAUSTIVE_HOLDS, **_zero_divisor("2", "4"),
                            **_not_reduced("4")},
    ("zmod:12", "endo:id"): {**EXHAUSTIVE_HOLDS, **_zero_divisor("2", "6"),
                             **_not_reduced("6")},
    ("gf:2:2", "endo:id"): EXHAUSTIVE_HOLDS,
    ("gf:2:2", "endo:frob"): EXHAUSTIVE_HOLDS,
    ("gf:5:1", "endo:id"): EXHAUSTIVE_HOLDS,
    ("prod(zmod:2,zmod:2)", "endo:id"): {**EXHAUSTIVE_HOLDS,
                                         **_zero_divisor("(0,1)", "(1,0)")},
    ("prod(zmod:2,zmod:2)", "endo:diag"): {
        **EXHAUSTIVE_HOLDS, **_zero_divisor("(0,1)", "(1,0)"),
        "injective": (False, {"a": "(0,0)", "b": "(0,1)", "image": "(0,0)"},
                      True, "image collision"),
        "rigid": (False, {"a": "(0,1)"}, True, "a*alpha(a) = 0 with a != 0"),
        "compatible": (False, {"a": "(0,1)", "b": "(0,1)",
                               "direction": "a*alpha(b) = 0 but a*b != 0"},
                       True, "a*alpha(b) = 0 but a*b != 0"),
        "preserves_nonunits": (False, {"a": "(1,0)", "image": "(1,1)"}, True,
                               "nonunit mapped to a unit"),
    },
    ("prod(zmod:2,zmod:3)", "endo:id"): {**EXHAUSTIVE_HOLDS,
                                         **_zero_divisor("(0,1)", "(1,0)")},
    ("xyq:gf:2:1:N=8", "endo:id"): _XY,
    ("xyq:gf:2:1:N=8", "endo:xsq"): _XY,
    ("tser(zmod:4,N=6)", "endo:id"): _TSER_Z4,
    ("tser(gf:2:1,N=8)", "endo:id"): _scope_holds(4),
}


def _texts(witness):
    if isinstance(witness, Element):
        return witness.text
    if isinstance(witness, tuple):
        return tuple(e.text for e in witness)
    return witness


@pytest.mark.parametrize("ring_spec,endo_spec", sorted(PINNED_VERDICTS))
def test_predicate_verdicts_pinned(ring_spec, endo_spec):
    ring = construct_ring(ring_spec)
    endo = build_endo(ring, endo_spec)
    red, dom = is_reduced(ring), is_domain(ring)
    got = {"reduced": (red.reduced, _texts(red.witness), red.exact, red.note),
           "domain": (dom.domain, _texts(dom.witness), dom.exact, dom.note)}
    for name, pred in (("injective", is_injective), ("rigid", is_rigid),
                       ("compatible", is_compatible),
                       ("preserves_nonunits", preserves_nonunits)):
        v = pred(endo)
        got[name] = (v.holds, v.witness, v.exact, v.note)
    assert got == PINNED_VERDICTS[(ring_spec, endo_spec)]


def test_model_conditions_pinned():
    # the polynomial and series conditions on both sides, and the
    # classification, over every pinned (ring, twist) pair
    rows = []
    for ring_spec, endo_spec in sorted(PINNED_VERDICTS):
        ring = construct_ring(ring_spec)
        endo = build_endo(ring, endo_spec)
        rows.append([ring_spec, endo_spec]
                    + [conditions(ring, endo, side)
                       for side in ("right", "left")
                       for conditions in (poly_ring_conditions,
                                          series_ring_conditions)]
                    + [classify(ring, endo).as_witness()])
    assert _digest(json.dumps(rows, ensure_ascii=False)) == GOLDEN_CONDITIONS
