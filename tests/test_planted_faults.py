"""Fail-closed returns of the suites, fired by planted faults.

A suite says "fails" only when the package or a published statement is
wrong, so no registry entry reaches those returns.  Each test here plants
one fault in a fresh ring or twist, built outside the construction
caches so that no memoized result reaches another test: a kernel, unit
test or element printer that is wrong on a few values or pairs, a wrong
result planted in a ring's memo, or a twist whose map is altered after
it was built.  A subring or quotient is built over the ring it is
given, so a fault planted in a ring reaches its quotients too.
The suite must then return a report that passes `validate_report`,
renders as text, and contradicts the predictions (the CLI's exit-1
condition).  A fault in the scans of the two-variable derivation is
read from `derived_archimedean`, whose two sides share those scans.  A
fault that leaves a statement unsettled, rather than broken, gives a
valid report that contradicts nothing.  A kernel wrong on a pair that a
scan multiplies more than once must give the witness of the same scan
with every product taken afresh."""

from collections import Counter
from types import SimpleNamespace

import pytest

from skewarch.endos import FrobeniusEndo, IdentityEndo, SquareVariableEndo, TableEndo
from skewarch.props import (FAILS, HOLDS, HOLDS_BY_THEOREM, HYPOTHESIS_NOT_MET,
                            INCONCLUSIVE, derived_archimedean)
from skewarch.registry import RunConfig
from skewarch.reports import render_report_text, validate_report
from skewarch.rings import (GaloisFieldRing, SubsetHandle, TruncSeriesRing,
                            XYQuotientRing, ZmodRing, construct_ring, scan_domain)
from skewarch.suites import report_contradicts_predictions, run_one

from oracles import arithmetic_per_product, fresh_xyq, two_variable_scans_per_product


def run_report(ring, endo, suite_id):
    """The validated report of suite_id on an entry that builds (ring,
    endo), and whether it contradicts the predictions."""
    entry = SimpleNamespace(id="planted:" + ring.spec_text,
                            build=lambda: (ring, endo))
    report = run_one(entry, suite_id, RunConfig(seed=42).validated())
    validate_report(report)
    assert render_report_text(report).startswith(
        "%s / %s: %s\n" % (entry.id, suite_id, report["status"]))
    return report, report_contradicts_predictions(entry, report)


def run_planted(ring, endo, suite_id):
    """The report of suite_id, which must fail and contradict."""
    report, contradicts = run_report(ring, endo, suite_id)
    assert report["status"] == FAILS and contradicts
    return report


def test_a_wrong_product_fails_a_ring_law():
    ring = ZmodRing(6)
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
    ring = ZmodRing(6)
    right = getattr(ring, kernel)
    setattr(ring, kernel, lambda x, y: value if (x, y) == pair else right(x, y))
    report = run_planted(ring, IdentityEndo(ring), "arithmetic")
    assert report["witness"] == witness


@pytest.mark.parametrize("wrong,law", [
    (2, "polynomial round-trip"), (3, "series round-trip"),
], ids=["polynomial", "series"])
def test_a_wrong_element_text_fails_a_round_trip(wrong, law):
    # the value `wrong` prints as its successor; at seed 42 a sampled
    # polynomial holds 2 before any sampled series does, and a sampled
    # series holds 3 before any sampled polynomial does
    ring = ZmodRing(6)
    text = ring.text_of_v
    ring.text_of_v = lambda v: text(v + 1 if v == wrong else v)
    report = run_planted(ring, IdentityEndo(ring), "arithmetic")
    assert report["witness"]["law"] == law
    assert str(wrong + 1) in report["witness"]["text"]


def test_a_twist_altered_after_use_fails_the_twist_law():
    # the product x*a reads the power maps built before the change
    ring = GaloisFieldRing(2, 2, (1, 1, 1))
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


def _repeated_pair(ring, scan, skip=0):
    """The first pair, from product `skip` on, that scan(ring) multiplies
    more than once, with every product taken afresh."""
    mul, pairs = ring.k_mul, []
    ring.k_mul = lambda x, y: pairs.append((x, y)) or mul(x, y)
    scan(ring)
    counts = Counter(pairs)
    return next(p for p in pairs[skip:] if counts[p] > 1)


def _wrong_on(ring, pair):
    mul = ring.k_mul
    assert mul(*pair) != ring.one_v
    ring.k_mul = lambda x, y: ring.one_v if (x, y) == pair else mul(x, y)
    return ring


def test_a_wrong_repeated_product_fails_a_ring_law_as_its_oracle_does():
    # past the table of the 10 x 10 pair products, in the triples
    config = RunConfig(seed=42).validated()
    entry = SimpleNamespace(id="planted:" + fresh_xyq().spec_text)

    def oracle(ring):
        return arithmetic_per_product(entry, ring, IdentityEndo(ring), config)

    pair = _repeated_pair(fresh_xyq(), oracle, skip=10 ** 2)
    expected = oracle(_wrong_on(fresh_xyq(), pair))
    ring = _wrong_on(fresh_xyq(), pair)
    report = run_planted(ring, IdentityEndo(ring), "arithmetic")
    assert (report["witness"], report["certificate"]) == (expected.witness,
                                                          expected.certificate)


def test_a_wrong_repeated_product_fails_the_derivation_as_its_oracle_does():
    # a sample value times x: the collapse scan and the radical scan
    # both take it
    pair = _repeated_pair(fresh_xyq(), two_variable_scans_per_product)
    expected = two_variable_scans_per_product(_wrong_on(fresh_xyq(), pair))
    witness = _derivation_fails_alike_on_both_sides(_wrong_on(fresh_xyq(), pair),
                                                    expected.certificate)
    assert witness == expected.witness


def test_a_nonunit_one_minus_rm_fails_the_two_variable_derivation():
    ring = fresh_xyq()
    is_unit, x = ring.has_inverse_v, ring.x_v(1)
    wrong = ring.k_sub(ring.one_v, ring.x_v(5))
    ring.has_inverse_v = lambda v: v != wrong and is_unit(v)
    witness = _derivation_fails_alike_on_both_sides(
        ring, "a variable multiple escaped the radical")
    assert witness["m"] == ring.text_of_v(x)
    assert ring.k_mul(ring.v_of_text(witness["r"]), x) == ring.x_v(5)


def test_a_zero_product_in_a_field_fails_the_domain_prediction():
    # is_domain answers a field without products; the probe multiplies
    ring = GaloisFieldRing(2, 2, (1, 1, 1))
    mul = ring.k_mul
    ring.k_mul = lambda x, y: 0 if {x, y} == {2, 3} else mul(x, y)
    report = run_planted(ring, IdentityEndo(ring), "thm-3-3")
    assert report["certificate"] == ("conditions met yet the predicted domain "
                                     "model produced a zero-divisor pair")
    assert report["witness"]["conditions"]["domain"] == "holds"


def test_a_nontrivial_idempotent_fails_the_derived_chain_condition():
    # the series model's derivation reads only its base field, so the
    # fault in the model's own product reaches the idempotent scan alone
    ring = TruncSeriesRing(construct_ring("gf:2:1"), 4)
    e = next(v for v in scan_domain(ring).values
             if v not in (ring.zero_v, ring.one_v))
    mul = ring.k_mul
    ring.k_mul = lambda x, y: x if (x, y) == (e, e) else mul(x, y)
    report = run_planted(ring, IdentityEndo(ring), "lemma-2-3")
    assert report["witness"] == {"e": ring.text_of_v(e)}


def test_a_unit_product_of_nonunits_fails_two_consequence_clauses():
    # 2*4 read as 1, on a ring that still reads Archimedean: the sandwich
    # scan takes b*a*c as (c*a)*b, the ring being commutative, and finds
    # 1 = 4*1*2 with the nonunit 2; and 2*4 = 1 with 4*2 = 0 breaks
    # Dedekind-finiteness
    ring = ZmodRing(8)
    mul = ring.k_mul
    ring.k_mul = lambda x, y: 1 if (x, y) == (2, 4) else mul(x, y)
    report = run_planted(ring, IdentityEndo(ring), "lemma-2-3")
    witness = report["witness"]
    assert {k: witness[k] for k in ("a", "b", "c", "nonunit_factor")} == \
        {"a": "1", "b": "4", "c": "2", "nonunit_factor": "c"}
    assert witness["clause"] == "sandwich_units"
    assert witness["clauses"] == {"sandwich_units": FAILS,
                                  "zero_divisors_in_radical": HOLDS,
                                  "trivial_idempotents": HOLDS,
                                  "dedekind_finite": FAILS}
    assert report["certificate"].startswith(
        "clause sandwich_units fails although the ring is right-Archimedean")


def test_a_radical_holding_every_value_fails_the_gluing():
    # the quotients are built over the planted ring, whose kernels are
    # honest; only its memoized radical is wrong: it holds every value,
    # so the ideals (2) and (3) look radical
    ring = ZmodRing(6)
    ring._cache[("jacobson_radical",)] = SubsetHandle(ring, ring.values())
    report = run_planted(ring, IdentityEndo(ring), "prop-4-7")
    clauses = report["witness"]["clauses"]
    assert clauses["radical_archimedean_glue"]["status"] == FAILS
    assert report["witness"]["generators"] == ["2", "3"]


def test_a_comparable_pair_taken_for_incomparable_meets_no_clause():
    # the pair scan forms each R*a from the products r*a: with wrong
    # products, r*3 for r >= 4 reads r*2, so (3) holds (2), and 2*2 and
    # 8*2 read 0, so the scanned (2) misses 4 and the first "incomparable"
    # pair is (2), (4).  The quotients close each ideal additively, which
    # restores 4, and multiply only representatives 0..3, where 2*2 = 0
    # modulo (4) anyway, so they are honest: (4) lies in (2), Z/4 is not
    # reduced and (2) escapes the radical
    ring = ZmodRing(12)
    mul = ring.k_mul
    ring.k_mul = lambda x, y: (mul(x, 2) if y == 3 and x >= 4
                               else 0 if (x, y) in ((2, 2), (8, 2))
                               else mul(x, y))
    report, contradicts = run_report(ring, IdentityEndo(ring), "prop-4-7")
    assert report["status"] == HYPOTHESIS_NOT_MET and not contradicts
    assert report["witness"]["generators"] == ["2", "4"]
    assert report["witness"]["pair"]["intersection"] == ["0", "4", "8"]
    assert {c["status"] for c in report["witness"]["clauses"].values()} == \
        {HYPOTHESIS_NOT_MET}


def test_a_table_altered_after_its_law_check_fails_the_rigidity_decomposition():
    # alpha(2) = 1 on Z/4: a*alpha(a) = 0 still forces a = 0, so the twist
    # is rigid, but 2*2 = 0 while 2*alpha(2) = 2, and 2 squares to zero
    ring = ZmodRing(4)
    endo = TableEndo(ring, "table:planted",
                     "".join("%d -> %d\n" % (v, v) for v in ring.values()))
    endo.table[2] = 1
    report = run_planted(ring, endo, "lemma-4-2")
    assert report["witness"] == {
        "rigid": "yes", "compatible": "no", "reduced": "no",
        "compatible_witness": {"a": "2", "b": "2",
                               "direction": "a*b = 0 but a*alpha(b) != 0"},
        "square_zero": "2"}


def test_a_square_zero_product_under_a_rigid_twist_fails_the_square_scan():
    # x*x = 0 on GF(4), x = [0,1]: x*alpha(x) = x*x^2 is untouched, so the
    # Frobenius stays rigid, but the table of a*alpha^o(a) meets the zero
    # and the draws run until a lowest term x at an even degree squares
    # to zero
    ring = GaloisFieldRing(2, 2, (1, 1, 1))
    mul = ring.k_mul
    ring.k_mul = lambda x, y: 0 if (x, y) == (2, 2) else mul(x, y)
    report = run_planted(ring, FrobeniusEndo(ring), "prop-4-1")
    assert report["certificate"] == ("rigid twist yet a genuine nonzero "
                                     "square-zero series appeared")
    assert report["witness"]["s"] == (
        "[%s]@gf:2:2:1,1,1;endo:frob;N=16"
        % ",".join("[0,1]" if i == 6 else "[0,0]" for i in range(17)))


def test_a_twist_sending_x_to_a_unit_fails_the_twisted_example():
    ring = fresh_xyq()
    xsq, x = SquareVariableEndo(ring), ring.x_v(1)
    apply = xsq.apply_v
    xsq.apply_v = lambda v: ring.one_v if v == x else apply(v)
    report = run_planted(ring, xsq, "examples-4-8-9")
    assert (report["witness"]["rigid"],
            report["witness"]["preserves_nonunits"]) == ("yes", "no")


def test_a_twist_acting_as_the_identity_fails_the_twisted_example():
    # rigidity is read from the honest widened twist
    ring = fresh_xyq()
    xsq = SquareVariableEndo(ring)
    xsq.power_apply_v = lambda t, v: v
    report = run_planted(ring, xsq, "examples-4-8-9")
    assert report["certificate"] == "twisted series model unexpectedly commutes"
    assert report["witness"]["t*x"] == report["witness"]["x*t"]


def test_a_field_with_a_false_nonunit_leaves_the_example_unsettled():
    field = GaloisFieldRing(3, 1, (0, 1))
    is_unit = field.has_inverse_v
    field.has_inverse_v = lambda v: v != 2 and is_unit(v)
    ring = XYQuotientRing(field, 4)
    for side in ("right", "left"):
        arch = derived_archimedean(ring, side)
        assert (arch.status, arch.certificate) == (
            INCONCLUSIVE, "coefficient field failed its exact scans")
    report, contradicts = run_report(ring, IdentityEndo(ring), "examples-4-8-9")
    assert report["status"] == INCONCLUSIVE and not contradicts
    assert report["witness"]["archimedean"] == INCONCLUSIVE
