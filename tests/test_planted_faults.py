"""Fail-closed returns of the suites, fired by planted faults.

A suite says "fails" only when the package or a published statement is
wrong, so no registry entry reaches those returns.  Each test here plants
one fault in a fresh ring or twist, built outside the construction
caches so that no memoized result reaches another test: a kernel that is
wrong on one pair, or a twist whose map is altered after it was built.
The suite must then return a report that passes `validate_report`,
renders as text, and contradicts the predictions (the CLI's exit-1
condition).  A fault in the scans of the two-variable derivation is
read from `derived_archimedean`, whose two sides share those scans."""

from types import SimpleNamespace

import pytest

from skewarch.endos import FrobeniusEndo, IdentityEndo
from skewarch.props import FAILS, HOLDS_BY_THEOREM, derived_archimedean
from skewarch.registry import RunConfig
from skewarch.reports import render_report_text, validate_report
from skewarch.rings import (GaloisFieldRing, XYQuotientRing, ZmodRing, ZmodSpec,
                            construct_ring, parse_ring_spec)
from skewarch.suites import report_contradicts_predictions, run_one


def run_planted(ring, endo, suite_id):
    """The report of suite_id on an entry that builds (ring, endo)."""
    entry = SimpleNamespace(id="planted:" + ring.spec_text,
                            build=lambda: (ring, endo))
    report = run_one(entry, suite_id, RunConfig(seed=42).validated())
    validate_report(report)
    assert render_report_text(report).startswith(
        "%s / %s: fails\n" % (entry.id, suite_id))
    assert report_contradicts_predictions(entry, report)
    return report


def fresh_xyq():
    return XYQuotientRing(parse_ring_spec("xyq:gf:2:1:N=8"), construct_ring("gf:2:1"))


def test_a_wrong_product_fails_a_ring_law():
    ring = ZmodRing(ZmodSpec(6))
    mul = ring.k_mul
    ring.k_mul = lambda x, y: 1 if (x, y) == (2, 3) else mul(x, y)
    report = run_planted(ring, IdentityEndo(ring), "arithmetic")
    assert report["witness"] == {"law": "right distributivity",
                                 "a": "1", "b": "1", "c": "3"}


@pytest.mark.parametrize("kernel,pair,value,witness", [
    ("k_add", (1, 2), 0, {"law": "additive commutativity", "a": "1", "b": "2"}),
    ("k_mul", (0, 1), 2, {"law": "multiplicative associativity",
                          "a": "0", "b": "0", "c": "1"}),
    ("k_add", (2, 3), 0, {"law": "left distributivity",
                          "a": "2", "b": "2", "c": "3"}),
], ids=["additive-commutativity", "associativity", "left-distributivity"])
def test_a_wrong_kernel_value_fails_its_ring_law(kernel, pair, value, witness):
    # the law loop takes each pair sum and product once, before the
    # triples; a value wrong in that table must still break its law
    ring = ZmodRing(ZmodSpec(6))
    right = getattr(ring, kernel)
    setattr(ring, kernel, lambda x, y: value if (x, y) == pair else right(x, y))
    report = run_planted(ring, IdentityEndo(ring), "arithmetic")
    assert report["witness"] == witness


def test_a_twist_altered_after_use_fails_the_twist_law():
    # the product x*a reads the power maps built before the change
    ring = GaloisFieldRing(parse_ring_spec("gf:2:2"))
    frob = FrobeniusEndo(ring)
    frob.power_apply_v(1, ring.one_v)
    frob.apply_v = lambda v: v
    report = run_planted(ring, frob, "arithmetic")
    assert report["witness"]["law"] == "twist law"
    assert report["witness"]["a"] == "[0,1]"


def test_a_nonzero_xy_fails_the_defining_relation():
    ring = fresh_xyq()
    mul, xy = ring.k_mul, (ring.x_v(1), ring.y_v(1))
    ring.k_mul = lambda x, y: ring.one_v if (x, y) == xy else mul(x, y)
    report = run_planted(ring, IdentityEndo(ring), "examples-4-8-9")
    assert report["witness"] == {"x*y": ring.text_of_v(ring.one_v)}


def test_a_noncommuting_product_fails_the_untwisted_example():
    # the derivation multiplies in the ring, so it runs before the fault
    ring = fresh_xyq()
    assert derived_archimedean(ring, "right").status == HOLDS_BY_THEOREM
    mul = ring.k_mul
    ring.k_mul = lambda x, y: ring.zero_v if x > y else mul(x, y)
    report = run_planted(ring, IdentityEndo(ring), "examples-4-8-9")
    a, b = (ring.v_of_text(report["witness"][k]) for k in ("a", "b"))
    assert report["certificate"] == "commutativity broken in the untwisted example"
    assert mul(a, b) != ring.zero_v and a > b


def _derivation_fails_alike_on_both_sides(ring, certificate):
    right = derived_archimedean(ring, "right")
    assert (right.status, right.certificate) == (FAILS, certificate)
    left = derived_archimedean(ring, "left")
    assert (left.status, left.witness) == (FAILS, right.witness)
    return right.witness


def test_a_wrong_block_product_fails_the_two_variable_derivation():
    ring = fresh_xyq()
    mul, xy = ring.k_mul, (ring.x_v(1), ring.y_v(1))
    ring.k_mul = lambda x, y: ring.one_v if (x, y) == xy else mul(x, y)
    witness = _derivation_fails_alike_on_both_sides(
        ring, "block collapse failed to respect a product")
    assert witness == {"u": ring.text_of_v(xy[0]), "v": ring.text_of_v(xy[1])}


def test_a_nonunit_one_minus_rm_fails_the_two_variable_derivation():
    ring = fresh_xyq()
    is_unit, x = ring.has_inverse_v, ring.x_v(1)
    wrong = ring.k_sub(ring.one_v, ring.x_v(5))
    ring.has_inverse_v = lambda v: v != wrong and is_unit(v)
    witness = _derivation_fails_alike_on_both_sides(
        ring, "a variable multiple escaped the radical")
    assert witness["m"] == ring.text_of_v(x)
    assert ring.k_mul(ring.v_of_text(witness["r"]), x) == ring.x_v(5)
