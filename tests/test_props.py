import dataclasses
import json

import pytest

from oracles import geometric_check_per_draw, oracle_idempotents

from skewarch import props
from skewarch.endos import build_endo
from skewarch.props import (
    FAILS,
    HOLDS,
    HOLDS_BY_THEOREM,
    HYPOTHESIS_NOT_MET,
    INCONCLUSIVE,
    archimedean_consequence_suite,
    archimedean_falsifier,
    archimedean_field_census,
    classify,
    derived_archimedean,
    first_incomparable_principal_pair,
    geometric_termination_check,
    induction_audit,
    is_archimedean,
    poly_radical_check,
    poly_ring_conditions,
    quotient_intersection_check,
    random_poly,
    random_series,
    regular_ring_division_check,
    rigidity_decomposition_verdict,
    series_reduced_check,
    series_ring_conditions,
    subring_inheritance_check,
    twisted_power_product_equivalence,
)
from skewarch.endos import EndoVerdict, IdentityEndo, is_rigid
from skewarch.prng import derive_rng
from skewarch.registry import ENTRIES
from skewarch.rings import (NonEnumerableError, SubsetHandle, XYQuotientRing,
                            ZmodRing, construct_ring)
from skewarch import skew
from skewarch.skew import (SkewPoly, TruncSeries, _inverse_of_one_plus,
                           nilpotency_probe, parse_poly_text)

ALL_STATUSES = {HOLDS, FAILS, HYPOTHESIS_NOT_MET, INCONCLUSIVE,
                HOLDS_BY_THEOREM}

FINITE_SPECS = [
    "zmod:6", "zmod:8", "zmod:12", "gf:2:2", "gf:5:1",
    "prod(zmod:2,zmod:2)", "prod(zmod:2,zmod:3)",
]


def _pair(ring_spec, endo_spec="endo:id"):
    ring = construct_ring(ring_spec)
    return ring, build_endo(ring, endo_spec)


def _const_series(ring, endo, text, precision=8):
    return TruncSeries.constant(ring, endo, ring.v_of_text(text), precision)


def _assert_no_floats(obj):
    if isinstance(obj, float):
        raise AssertionError("float leaked into a witness: %r" % obj)
    if isinstance(obj, dict):
        for k, v in obj.items():
            _assert_no_floats(k)
            _assert_no_floats(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _assert_no_floats(v)


# ---------------------------------------------------------------------------
# the Archimedean chain scan (tests/test_fast_paths.py checks it against
# its oracle)


def test_archimedean_frozen_witnesses():
    expected = {
        "zmod:6": (FAILS, {"a": "2", "stabilized": ["0", "2", "4"]}),
        "zmod:8": (HOLDS, None),
        "zmod:12": (FAILS, {"a": "2", "stabilized": ["0", "4", "8"]}),
        "gf:2:2": (HOLDS, None),
        "gf:5:1": (HOLDS, None),
        "prod(zmod:2,zmod:2)":
            (FAILS, {"a": "(0,1)", "stabilized": ["(0,0)", "(0,1)"]}),
        "prod(zmod:2,zmod:3)":
            (FAILS, {"a": "(0,1)", "stabilized": ["(0,0)", "(0,1)", "(0,2)"]}),
    }
    for spec, (status, witness) in expected.items():
        for side in ("right", "left"):
            v = is_archimedean(construct_ring(spec), side=side)
            assert v.status == status
            assert v.witness == witness


def test_archimedean_rejects_truncated_and_bad_side():
    # the refusal is TruncatedModel.values()'s, raised before any product
    with pytest.raises(NonEnumerableError, match="derived_archimedean decides"):
        is_archimedean(construct_ring("xyq:gf:2:1:N=8"))
    with pytest.raises(ValueError):
        is_archimedean(construct_ring("zmod:6"), side="up")


def test_memoized_result_is_shared_and_a_raise_stores_nothing():
    # zmod:8 holds, and each side's certificate names the side
    z8 = construct_ring("zmod:8")
    assert is_archimedean(z8) is is_archimedean(z8, side="right")
    assert is_archimedean(z8, "left") is is_archimedean(z8, side="left")
    assert is_archimedean(z8) is not is_archimedean(z8, "left")
    # zmod:6 fails, and the failure, found by one side-free search, is
    # the verdict of both sides
    z6 = construct_ring("zmod:6")
    assert is_archimedean(z6) is is_archimedean(z6, "left")
    kept = dict(z6._cache)
    with pytest.raises(ValueError):
        is_archimedean(z6, side="up")
    assert z6._cache == kept
    xyq = construct_ring("xyq:gf:2:1:N=8")
    kept = dict(xyq._cache)
    with pytest.raises(NonEnumerableError):
        is_archimedean(xyq)
    assert xyq._cache == kept


def test_derived_archimedean_dispatch():
    z6 = construct_ring("zmod:6")
    assert derived_archimedean(z6) == is_archimedean(z6)
    v = derived_archimedean(construct_ring("tser(gf:2:2,N=8)"))
    assert v.status == HOLDS_BY_THEOREM
    assert v.theorem_tags == ("Corollary 4.6",)
    v = derived_archimedean(construct_ring("tser(zmod:8,N=8)"))
    assert v.status == INCONCLUSIVE
    assert v.witness == {"square_zero": "4"}
    v = derived_archimedean(construct_ring("tser(zmod:6,N=8)"))
    assert v.status == FAILS
    assert v.witness["base_stabilized"] == ["0", "2", "4"]


def test_derived_archimedean_two_variable_structure():
    ring = construct_ring("xyq:gf:2:1:N=8")
    for side in ("right", "left"):
        v = derived_archimedean(ring, side)
        assert v.status == HOLDS_BY_THEOREM
        assert v.theorem_tags == ("Proposition 4.7", "Corollary 4.6")
        steps = v.witness["derivation"]
        assert len(steps) == 6
        assert steps[0].startswith("coefficient field")
        assert steps[-1].startswith("conclusion:")
    assert derived_archimedean(ring) is derived_archimedean(ring)


# ---------------------------------------------------------------------------
# consequence clauses; sandwich products


def test_consequence_suite_clause_keys_and_statuses():
    out = archimedean_consequence_suite(construct_ring("zmod:6"))
    assert list(out) == ["archimedean", "sandwich_units",
                         "zero_divisors_in_radical", "trivial_idempotents",
                         "dedekind_finite", "aggregate"]
    assert {v.status for v in out.values()} <= ALL_STATUSES


def test_consequence_suite_archimedean_ring_all_holds():
    for spec in ("zmod:8", "gf:2:2", "gf:5:1"):
        out = archimedean_consequence_suite(construct_ring(spec))
        assert all(v.status == HOLDS for v in out.values())


def test_consequence_suite_contrapositive_on_non_archimedean_ring():
    out = archimedean_consequence_suite(construct_ring("zmod:6"))
    assert out["archimedean"].status == FAILS
    assert out["sandwich_units"].witness == {
        "a": "2", "b": "2", "c": "2", "nonunit_factor": "c"}
    assert out["zero_divisors_in_radical"].witness == {"a": "2"}
    assert out["trivial_idempotents"].witness == {"e": "3"}
    assert out["dedekind_finite"].status == HOLDS
    agg = out["aggregate"]
    assert agg.status == HYPOTHESIS_NOT_MET
    assert [c["clause"] for c in agg.witness["contrapositive"]] == [
        "sandwich_units", "zero_divisors_in_radical", "trivial_idempotents"]
    # the nontrivial idempotent is genuine: e^2 = e with e not in {0, 1}
    z6 = construct_ring("zmod:6")
    e = z6.v_of_text(agg.witness["contrapositive"][2]["witness"]["e"])
    assert e in oracle_idempotents(z6) - {z6.zero_v, z6.one_v}


def test_sandwich_clause_sides():
    z6 = construct_ring("zmod:6")
    from skewarch.props import sandwich_unit_clause
    right = sandwich_unit_clause(z6, "right")
    left = sandwich_unit_clause(z6, "left")
    assert right.witness["nonunit_factor"] == "c"
    assert left.witness["nonunit_factor"] == "b"
    # replay both sandwich witnesses: aba (resp. bab-free left form) nonzero
    for v in (right, left):
        a = z6.v_of_text(v.witness["a"])
        b = z6.v_of_text(v.witness["b"])
        c = z6.v_of_text(v.witness["c"])
        assert z6.k_mul(z6.k_mul(a, b), c) != z6.zero_v


# ---------------------------------------------------------------------------
# subring descent and the regular/division dichotomy


def test_subring_inheritance_frozen():
    v = subring_inheritance_check(construct_ring("zmod:8"))
    assert v.status == HOLDS
    assert v.witness["ambient_units_in_subring"] == ["1", "3", "5", "7"]
    v = subring_inheritance_check(construct_ring("zmod:6"))
    assert v.status == HYPOTHESIS_NOT_MET
    assert v.witness["ambient_witness"]["a"] == "2"
    assert v.witness["subring_status"] == FAILS
    v = subring_inheritance_check(construct_ring("prod(zmod:2,zmod:2)"),
                                  gens=("(1,0)",))
    assert v.status == HYPOTHESIS_NOT_MET
    assert v.witness["subring_card"] == 4
    assert v.witness["ambient_units_in_subring"] == ["(1,1)"]


def test_regular_division_check_frozen():
    out = regular_ring_division_check(construct_ring("zmod:8"))
    assert {k: v.status for k, v in out.items()} == {
        "semiprimitive_domain": HYPOTHESIS_NOT_MET,
        "regular_division": HYPOTHESIS_NOT_MET,
        "aggregate": HYPOTHESIS_NOT_MET}
    assert out["semiprimitive_domain"].witness["radical"] == [
        "0", "2", "4", "6"]
    assert out["regular_division"].witness == {"a": "2"}
    out = regular_ring_division_check(construct_ring("gf:5:1"))
    assert all(v.status == HOLDS for v in out.values())
    out = regular_ring_division_check(construct_ring("prod(zmod:2,zmod:2)"))
    assert out["semiprimitive_domain"].status == HYPOTHESIS_NOT_MET
    assert out["regular_division"].status == HOLDS
    assert out["aggregate"].status == HOLDS


def test_field_product_census():
    rows = archimedean_field_census()
    assert len(rows) == 34
    assert rows[0] == {"spec": "gf:2:1", "factors": 1, "cardinality": 2,
                       "regular": True, "division": True, "archimedean": True}
    assert rows[-1]["spec"] == "prod(gf:5:1,gf:5:1,gf:5:1)"
    assert rows[-1]["cardinality"] == 125
    for row in rows:
        # products of fields are always regular; the chain condition and
        # division both single out the one-factor rows
        assert row["regular"] is True
        assert row["archimedean"] == (row["factors"] == 1)
        assert row["division"] == (row["factors"] == 1)
        assert construct_ring(row["spec"]).card == row["cardinality"]


# ---------------------------------------------------------------------------
# hypothesis bundles for the two model constructions


def test_poly_and_series_conditions():
    z6, e6 = _pair("zmod:6")
    cond = poly_ring_conditions(z6, e6)
    assert cond["satisfied"] is False
    assert cond["tag"] == "Corollary 3.5"
    assert cond["basis"] == "exact"
    assert cond["parts"]["domain"]["holds"] is False
    cond = series_ring_conditions(z6, e6)
    assert cond["satisfied"] is False
    assert cond["tag"] == "Corollary 4.6"
    assert cond["parts"]["rigid"]["holds"] is True

    g, fr = _pair("gf:2:2", "endo:frob")
    assert poly_ring_conditions(g, fr)["satisfied"] is True
    assert poly_ring_conditions(g, fr)["tag"] == "Theorem 3.3"
    assert poly_ring_conditions(g, fr, side="left")["tag"] == "Theorem 3.4"
    assert series_ring_conditions(g, fr)["satisfied"] is True
    assert series_ring_conditions(g, fr)["tag"] == "Theorem 4.4"
    assert series_ring_conditions(g, fr, side="left")["tag"] == "Theorem 4.5"

    x, xs = _pair("xyq:gf:2:1:N=8", "endo:xsq")
    cond = poly_ring_conditions(x, xs)
    assert cond["satisfied"] is False        # xy = 0 kills the domain part
    assert cond["basis"] == "scope"
    cond = series_ring_conditions(x, xs)
    assert cond["satisfied"] is True
    assert cond["basis"] == "scope"


# ---------------------------------------------------------------------------
# polynomial model: geometric expansion, radical, nilpotent shift


def test_geometric_termination_sampling():
    for rs, es in (("zmod:6", "endo:id"), ("zmod:8", "endo:id"),
                   ("gf:2:2", "endo:frob"),
                   ("prod(zmod:2,zmod:2)", "endo:diag"),
                   ("xyq:gf:2:1:N=8", "endo:xsq")):
        ring, endo = _pair(rs, es)
        v = geometric_termination_check(ring, endo, samples=200, seed=11)
        assert v.status == HOLDS
        assert v.witness is None


def test_geometric_termination_catches_an_index_disagreement(monkeypatch):
    """A probe that reports each zero power one step late must fail the
    cross-check with both indices in the witness."""
    probe = props.nilpotency_probe

    def late_probe(f, bound=16):
        res = probe(f, bound)
        if not res.zero_power_found:
            return res
        return dataclasses.replace(res, index=res.index + 1)

    monkeypatch.setattr(props, "nilpotency_probe", late_probe)
    ring, endo = _pair("zmod:8")
    v = geometric_termination_check(ring, endo, samples=200, seed=11)
    assert v.status == FAILS
    assert v.witness["probe_index"] == v.witness["termination_index"] + 1


def test_geometric_termination_walks_one_power_chain_per_sample(monkeypatch):
    """The expansion and the probe of a terminated expansion read the
    powers of one f*u: powers 2 to precision + 2 at most, one product
    each.  Full powers are built only once the chain of top coefficients
    has hit zero.  It never does over a field with an injective twist; on
    zmod:8 the top chain of f*u = u + 2u^2 dies at the cube, so the
    expansion builds its powers 2 to precision + 1 and a probe one more."""
    precision = 6
    products = []       # SkewPoly products per sampled polynomial
    draw, multiply = props.random_poly, SkewPoly.__mul__

    def counted_draw(*args, **kwargs):
        products.append(0)
        return draw(*args, **kwargs)

    def counted_multiply(a, b):
        products[-1] += 1
        return multiply(a, b)

    monkeypatch.setattr(props, "random_poly", counted_draw)
    monkeypatch.setattr(SkewPoly, "__mul__", counted_multiply)
    for rs, es in (("zmod:8", "endo:id"), ("gf:2:2", "endo:frob"),
                   ("xyq:gf:2:1:N=8", "endo:xsq")):
        ring, endo = _pair(rs, es)
        products.clear()
        v = geometric_termination_check(ring, endo, samples=50, seed=3,
                                        precision=precision)
        assert v.status == HOLDS
        assert products and max(products) <= precision + 2
        if rs == "gf:2:2":
            assert max(products) == 0
    ring, endo = _pair("zmod:8")
    fu = SkewPoly(ring, endo, [1, 2]).shift(1)
    products[:] = [0]
    assert not _inverse_of_one_plus(fu, precision).terminated
    assert not nilpotency_probe(fu, bound=precision + 1).zero_power_found
    assert products == [precision + 1] and fu._tops == [2, 4, 0]


@pytest.mark.parametrize("entry", ENTRIES, ids=[e.id for e in ENTRIES])
def test_geometric_termination_checks_each_distinct_sample_once(monkeypatch, entry):
    """Seeds 0-3: the same verdict as checking every draw, and a draw
    seen before in the call makes no SkewPoly product and no window
    product."""
    ring, endo = entry.build()
    expected = [geometric_check_per_draw(ring, endo, 200, seed) for seed in range(4)]
    draws, counts = [], []      # per draw: its coefficients, its products
    draw, multiply, window = props.random_poly, SkewPoly.__mul__, skew.window_mul

    def counted_draw(*args, **kwargs):
        f = draw(*args, **kwargs)
        draws.append(f.coeffs)
        counts.append(0)
        return f

    def counted_multiply(a, b):
        counts[-1] += 1
        return multiply(a, b)

    def counted_window(*args, **kwargs):
        counts[-1] += 1
        return window(*args, **kwargs)

    monkeypatch.setattr(props, "random_poly", counted_draw)
    monkeypatch.setattr(SkewPoly, "__mul__", counted_multiply)
    monkeypatch.setattr(skew, "window_mul", counted_window)
    for seed in range(4):
        draws.clear()
        counts.clear()
        assert geometric_termination_check(ring, endo, 200, seed) == expected[seed]
        repeats = [n for i, n in enumerate(counts) if draws[i] in draws[:i]]
        assert repeats == [0] * len(repeats)
        if not ring.truncated:
            assert repeats


def test_poly_radical_check_frozen():
    v = poly_radical_check(construct_ring("zmod:6"), samples=40, seed=7)
    assert v.status == HYPOTHESIS_NOT_MET
    assert v.witness["unmet"] == ["archimedean", "domain"]
    assert v.witness["probe"] == {
        "f": "[0,3]@zmod:6;endo:id", "b": "[0,0,0,0,2]@zmod:6;endo:id",
        "nilpotent": "no", "in_radical": "no"}
    # replay the probe: f*b = 0 with both factors nonzero
    f = parse_poly_text(v.witness["probe"]["f"])
    b = parse_poly_text(v.witness["probe"]["b"])
    assert not f.is_zero and not b.is_zero and (f * b).is_zero
    v = poly_radical_check(construct_ring("gf:5:1"), samples=40, seed=7)
    assert v.status == HOLDS and v.witness is None
    v = poly_radical_check(construct_ring("zmod:8"), samples=40, seed=7)
    assert v.status == HYPOTHESIS_NOT_MET
    assert v.witness["unmet"] == ["domain"]
    assert v.witness["probe"]["nilpotent"] == "yes"
    assert v.witness["probe"]["in_radical"] == "yes"


# ---------------------------------------------------------------------------
# series model: reduced iff rigid, and the decomposition of rigidity


def test_series_reduced_check():
    z6, e6 = _pair("zmod:6")
    assert series_reduced_check(z6, e6, seed=3).status == HOLDS
    z8, e8 = _pair("zmod:8")
    v = series_reduced_check(z8, e8, seed=3)
    assert v.status == HOLDS
    assert v.witness["a"] == "4" and v.witness["genuine"] == "yes"
    s = parse_poly_text(v.witness["square_zero_series"])
    assert not s.is_zero and (s * s).is_zero
    p, dg = _pair("prod(zmod:2,zmod:2)", "endo:diag")
    v = series_reduced_check(p, dg, seed=3)
    assert v.status == HOLDS and v.witness["a"] == "(0,1)"
    x = construct_ring("xyq:gf:2:1:N=8")
    for es in ("endo:id", "endo:xsq"):
        v = series_reduced_check(x, build_endo(x, es), seed=3)
        assert v.status == HOLDS and v.witness is None
    # the xsq run hits a square that only vanishes past the base window
    v = series_reduced_check(x, build_endo(x, "endo:xsq"), seed=3)
    assert "artifact" in v.certificate


def test_rigidity_decomposition_verdicts():
    expected = {
        ("zmod:6", "endo:id"): {"rigid": "yes", "compatible": "yes",
                                "reduced": "yes"},
        ("zmod:8", "endo:id"): {"rigid": "no", "compatible": "yes",
                                "reduced": "no"},
        ("gf:2:2", "endo:frob"): {"rigid": "yes", "compatible": "yes",
                                  "reduced": "yes"},
        ("prod(zmod:2,zmod:2)", "endo:diag"): {"rigid": "no",
                                               "compatible": "no",
                                               "reduced": "yes"},
        ("xyq:gf:2:1:N=8", "endo:xsq"): {"rigid": "yes", "compatible": "yes",
                                         "reduced": "yes"},
    }
    for (rs, es), summary in expected.items():
        v = rigidity_decomposition_verdict(_pair(rs, es)[1])
        assert v.status == HOLDS
        assert v.witness == summary


# ---------------------------------------------------------------------------
# twisted power products versus plain power products


def test_power_product_equivalence_exhaustive_reduced_ring():
    z6, e6 = _pair("zmod:6")
    v = twisted_power_product_equivalence(z6, e6)
    assert v.status == HOLDS
    assert "219660 twisted products" in v.certificate


def test_power_product_equivalence_demonstrations():
    z8, e8 = _pair("zmod:8")
    v = twisted_power_product_equivalence(z8, e8)
    assert v.status == HYPOTHESIS_NOT_MET
    assert v.witness["demonstration"] == {
        "bases": ["2"], "exponents": [3], "twists": [0],
        "twisted_product": "zero", "plain_product": "nonzero"}
    assert v.witness["rigid_witness"] == {"a": "4"}
    assert "twist depths <= 2" in v.certificate    # budget shrink kicked in
    z12, e12 = _pair("zmod:12")
    v = twisted_power_product_equivalence(z12, e12)
    assert v.witness["demonstration"]["bases"] == ["6"]
    assert v.witness["demonstration"]["exponents"] == [2]
    assert "twist depths <= 1" in v.certificate
    p, dg = _pair("prod(zmod:2,zmod:2)", "endo:diag")
    v = twisted_power_product_equivalence(p, dg)
    assert v.witness["demonstration"]["bases"] == ["(0,1)"]
    assert v.witness["demonstration"]["twists"] == [1]
    # each demonstration replays: the twisted product vanishes on a
    # nonzero base tuple, so only the rigid form of the equivalence fails
    for v, rs, es in ((twisted_power_product_equivalence(*_pair("zmod:8")),
                       "zmod:8", "endo:id"),):
        ring, endo = _pair(rs, es)
        demo = v.witness["demonstration"]
        acc = ring.one_v
        for text, k, t in zip(demo["bases"], demo["exponents"],
                              demo["twists"]):
            base = ring.v_of_text(text)
            img = base
            for _ in range(t):
                img = endo.apply_v(img)
            for _ in range(k):
                acc = ring.k_mul(acc, img)
        assert acc == ring.zero_v


def test_power_product_equivalence_shortcut_and_scope():
    g, fr = _pair("gf:2:2", "endo:frob")
    v = twisted_power_product_equivalence(g, fr)
    assert v.status == HOLDS and "exact shortcut" in v.certificate
    x = construct_ring("xyq:gf:2:1:N=8")
    for es in ("endo:id", "endo:xsq"):
        v = twisted_power_product_equivalence(x, build_endo(x, es))
        assert v.status == HOLDS
        assert "sampled scope tuples" in v.certificate


# ---------------------------------------------------------------------------
# divisibility falsifier


def _constant_term_texts(series_texts):
    out = []
    for text in series_texts:
        s = parse_poly_text(text)
        assert all(c == s.ring.zero_v for c in s.coeffs[1:])
        out.append(s.ring.text_of_v(s.coeffs[0]))
    return out


def test_falsifier_finds_constant_chain_in_non_archimedean_ring():
    z6, e6 = _pair("zmod:6")
    for side in ("right", "left"):
        v = archimedean_falsifier(z6, e6, seed=0, side=side)
        assert v.status == FAILS
        assert _constant_term_texts([v.witness["f"]]) == ["2"]
        assert _constant_term_texts([v.witness["g"]]) == ["2"]
        assert _constant_term_texts(v.witness["h"]) == ["1", "2", "1", "2",
                                                        "1"]
        assert v.witness["stabilized"] == ["0", "2", "4"]
    # deterministic: the same seed reproduces the entire verdict
    assert archimedean_falsifier(z6, e6, seed=0) == \
        archimedean_falsifier(z6, e6, seed=0)


def test_falsifier_replays_divisibility_witnesses():
    z6, e6 = _pair("zmod:6")
    v = archimedean_falsifier(z6, e6, seed=0)
    f = parse_poly_text(v.witness["f"])
    g = parse_poly_text(v.witness["g"])
    for n, ht in enumerate(v.witness["h"], start=1):
        h = parse_poly_text(ht)
        power = g
        for _ in range(n - 1):
            power = power * g
        assert h * power == f


def test_falsifier_inconclusive_and_theorem_shortcuts():
    z8, e8 = _pair("zmod:8")
    v = archimedean_falsifier(z8, e8, seed=0)
    assert v.status == INCONCLUSIVE
    assert v.witness == {"unmet": ["rigid"]}
    g, fr = _pair("gf:2:2", "endo:frob")
    assert archimedean_falsifier(g, fr, seed=0).theorem_tags == \
        ("Theorem 4.4",)
    assert archimedean_falsifier(g, fr, seed=0, side="left").theorem_tags == \
        ("Theorem 4.5",)
    f5, e5 = _pair("gf:5:1")
    assert archimedean_falsifier(f5, e5, seed=0).theorem_tags == \
        ("Corollary 4.6",)
    p, dg = _pair("prod(zmod:2,zmod:2)", "endo:diag")
    v = archimedean_falsifier(p, dg, seed=0)
    assert v.status == FAILS
    assert _constant_term_texts([v.witness["f"]]) == ["(0,1)"]


def test_falsifier_two_variable_scope():
    x = construct_ring("xyq:gf:2:1:N=8")
    xs = build_endo(x, "endo:xsq")
    xi = build_endo(x, "endo:id")
    v = archimedean_falsifier(x, xs, depth=4, budget=10_000, seed=0)
    assert (v.status, v.theorem_tags) == (HOLDS_BY_THEOREM, ("Theorem 4.4",))
    v = archimedean_falsifier(x, xs, depth=4, budget=10_000, seed=0,
                              side="left")
    assert (v.status, v.theorem_tags) == (HOLDS_BY_THEOREM, ("Theorem 4.5",))
    for side in ("right", "left"):
        v = archimedean_falsifier(x, xi, depth=4, budget=10_000, seed=0,
                                  side=side)
        assert (v.status, v.theorem_tags) == (HOLDS_BY_THEOREM,
                                              ("Corollary 4.6",))


# ---------------------------------------------------------------------------
# induction audit over a divisibility chain


def test_induction_audit_halts_without_rigidity():
    z8, e8 = _pair("zmod:8")
    g = _const_series(z8, e8, "2", 16)
    f = _const_series(z8, e8, "0", 16)
    hs = [_const_series(z8, e8, "0", 16) for _ in range(3)]
    v = induction_audit(f, g, hs, 3)
    assert v.status == HYPOTHESIS_NOT_MET
    assert v.witness["halt"] == {"stage": "product-collapse",
                                 "derived": {"constant-term": "0"}}
    assert v.witness["derived"] == {"coefficient": "constant-term",
                                    "value": "0"}
    stage = v.witness["stages"][1]
    assert stage["equations"] == ["0 = 0*2^1", "0 = 0*2^2", "0 = 0*2^3"]
    assert stage["stabilized"] == ["0"]
    assert stage["chain_length"] == 3
    assert v.witness["stages"][2]["blocked"] == "twist is not rigid"
    assert v.witness["stages"][2]["witness"] == {"a": "4"}


def test_induction_audit_halts_at_surviving_constant():
    z6, e6 = _pair("zmod:6")
    g = _const_series(z6, e6, "2")
    f = _const_series(z6, e6, "2")
    hs = [_const_series(z6, e6, t) for t in "121"]
    v = induction_audit(f, g, hs, 3)
    assert v.status == HYPOTHESIS_NOT_MET
    assert v.witness["halt"] == {"stage": "constant-term", "coefficient": "2",
                                 "stabilized": ["0", "2", "4"]}
    eqs = v.witness["stages"][1]["equations"]
    assert eqs == ["2 = 1*2^1", "2 = 2*2^2", "2 = 1*2^3"]
    left = induction_audit(f, g, hs, 3, side="left")
    assert left.witness["halt"] == v.witness["halt"]
    assert left.witness["stages"][1]["equations"] == [
        "2 = 2^1*1", "2 = 2^2*2", "2 = 2^3*1"]


def test_induction_audit_derives_zero_coefficients():
    z6, e6 = _pair("zmod:6")
    g = TruncSeries(z6, e6, 8, [z6.zero_v, z6.one_v])     # g = u
    f = _const_series(z6, e6, "0")
    hs = [_const_series(z6, e6, "0") for _ in range(3)]
    v = induction_audit(f, g, hs, 3)
    assert v.status == HOLDS
    assert "audited coefficients 0..2" in v.certificate
    names = [s["stage"] for s in v.witness["stages"]]
    assert names[:4] == ["replay", "constant-term", "product-collapse-0",
                         "degree-1"]


def test_induction_audit_builds_each_constant_chain_once(monkeypatch):
    # the identity twist sends g's constant term 0 to itself at every
    # degree, so degrees 0..2 read one chain
    built, chain = [], props.principal_power_chain
    monkeypatch.setattr(props, "principal_power_chain",
                        lambda *a: built.append(1) or chain(*a))
    z6, e6 = _pair("zmod:6")
    g = TruncSeries(z6, e6, 8, [z6.zero_v, z6.one_v])     # g = u
    zero = _const_series(z6, e6, "0")
    v = induction_audit(zero, g, [zero] * 3, 3)
    assert v.status == HOLDS and len(built) == 1


def test_induction_audit_vacuous_and_errors():
    g4 = construct_ring("gf:2:2")
    fr = build_endo(g4, "endo:frob")
    gu = _const_series(g4, fr, "[0,1]")
    v = induction_audit(gu, gu, [gu], 1)
    assert v.status == HYPOTHESIS_NOT_MET
    assert list(v.witness) == ["g"]
    z6, e6 = _pair("zmod:6")
    f = _const_series(z6, e6, "2")
    g = _const_series(z6, e6, "2")
    one = _const_series(z6, e6, "1")
    with pytest.raises(ValueError, match="needs 3 divisibility witnesses"):
        induction_audit(f, g, [one, one], 3)
    with pytest.raises(ValueError, match="fails to replay"):
        induction_audit(f, g, [one, one, one], 3)


def test_induction_audit_order_escape_at_scope():
    x = construct_ring("xyq:gf:2:1:N=8")
    e = build_endo(x, "endo:id")
    g = TruncSeries.constant(x, e, x.x_v(1), 16)
    f = TruncSeries.constant(x, e, x.x_v(3), 16)
    hs = [TruncSeries.constant(x, e, x.x_v(3 - n) if n < 3 else x.one_v, 16)
          for n in (1, 2, 3)]
    v = induction_audit(f, g, hs, 3)
    assert v.status == HOLDS
    assert [s["stage"] for s in v.witness["stages"]] == ["replay",
                                                         "order-escape"]
    assert v.certificate.startswith("order-escape audit at scope")


# Every halt of the audit, with its full verdict.  Honest inputs reach the
# first four; the rest plant one fault in a fresh ring or twist, built
# outside the construction caches, as tests/test_planted_faults.py does.

_REPLAY = {"stage": "replay", "detail": "f = h_n*g^n verified for n = 1..3"}
_FORCED = ("coefficient forced to 0: it lies in every multiple set down to "
           "the stabilized {0}")


def _audit(ring, endo, f, g, hs, precision=8):
    """The audit of constants f, g and h_1..h_len(hs), given as texts."""
    c = lambda t: _const_series(ring, endo, t, precision)
    return induction_audit(c(f), c(g), [c(t) for t in hs], len(hs))


def _planted_rigid(endo):
    endo._cache[("is_rigid",)] = EndoVerdict(True, None, True, "planted")
    return endo


def _verdict(v):
    return v.status, v.witness, v.certificate


def test_induction_audit_refuses_depth_zero():
    z6, e6 = _pair("zmod:6")
    with pytest.raises(ValueError, match="audit depth must be >= 1"):
        induction_audit(_const_series(z6, e6, "0"), _const_series(z6, e6, "2"),
                        [], 0)


def test_induction_audit_halts_on_a_chain_that_happens_to_spare_zero():
    v = _audit(*_pair("zmod:6"), "0", "2", "000")
    assert _verdict(v) == (HYPOTHESIS_NOT_MET, {
        "stages": [_REPLAY, {
            "stage": "constant-term",
            "equations": ["0 = 0*2^1", "0 = 0*2^2", "0 = 0*2^3"],
            "stabilized": ["0", "2", "4"], "chain_length": 1,
            "conclusion": "no chain certificate"}],
        "halt": {"stage": "constant-term", "coefficient": "0",
                 "stabilized": ["0", "2", "4"]},
    }, "audit halts at the constant-term stage: the right chain of 2 "
       "stabilizes at {0,2,4} without reaching {0}; the coefficient happens "
       "to vanish anyway")


def test_induction_audit_is_inconclusive_on_a_chain_longer_than_depth():
    v = _audit(*_pair("zmod:32"), "8", "2", "421")
    assert _verdict(v) == (INCONCLUSIVE, {
        "stages": [_REPLAY, {
            "stage": "constant-term",
            "equations": ["8 = 4*2^1", "8 = 2*2^2", "8 = 1*2^3"],
            "stabilized": ["0"], "chain_length": 5}],
        "halt": {"stage": "constant-term", "chain_length": 5},
    }, "the chain of 2 needs 5 steps to stabilize but the audit only has "
       "witnesses up to depth 3")


def test_induction_audit_is_inconclusive_on_a_divisor_of_inner_order_zero():
    v = _audit(*_pair("tser(prod(zmod:2,zmod:2),N=4)"), "[(1,0)]", "[(1,0)]",
               ["[(1,1)]"])
    assert _verdict(v) == (INCONCLUSIVE, {"stages": [
        {"stage": "replay", "detail": "f = h_n*g^n verified for n = 1..1"}]},
        "the divisor constant has inner order zero; no escape certificate "
        "at this scale")


def test_induction_audit_halts_where_a_twist_power_makes_a_unit():
    # a rigid verdict planted in the twist's memo, and a first twist power
    # that sends the divisor constant 2 to 1
    ring = ZmodRing(8)
    endo = _planted_rigid(IdentityEndo(ring))
    endo.power_apply_v = lambda t, v: ring.one_v if t else v
    v = _audit(ring, endo, "0", "2", "000")
    assert _verdict(v) == (HYPOTHESIS_NOT_MET, {
        "stages": [_REPLAY, {
            "stage": "constant-term",
            "equations": ["0 = 0*2^1", "0 = 0*2^2", "0 = 0*2^3"],
            "stabilized": ["0"], "chain_length": 3, "conclusion": _FORCED},
            {"stage": "product-collapse-0",
             "equations": ["0 = 0*2^1", "0 = 0*2^1", "0 = 0*2^1"]},
            {"stage": "degree-1", "blocked": "twist power 1 sends the "
             "divisor constant to the unit 1"}],
        "halt": {"stage": "degree-1", "unit_image": "1"},
    }, "audit halts at the degree-1 stage: the twist fails to preserve "
       "nonunits there, so the multiple sets of 1 are everything and "
       "certify nothing")


def test_induction_audit_fails_on_a_reduced_equation_that_breaks():
    # a power kernel wrong on 2^3 only; the replay multiplies series
    ring = ZmodRing(8)
    power = ring.k_pow
    ring.k_pow = lambda x, n: 1 if (x, n) == (2, 3) else power(x, n)
    v = _audit(ring, IdentityEndo(ring), "0", "2", "421")
    assert _verdict(v) == (FAILS, {
        "stages": [_REPLAY, {
            "stage": "constant-term",
            "equations": ["0 = 4*2^1", "0 = 2*2^2"],
            "mismatch": "0 = 1*2^3"}],
        "halt": {"stage": "constant-term", "equation": "0 = 1*2^3"},
    }, "the reduced constant-term equation fails numerically although every "
       "lower degree vanished and the twist is rigid")


def test_induction_audit_fails_on_a_coefficient_the_chain_forces_to_zero(
        monkeypatch):
    # a power chain that claims 2 is nilpotent in zmod:6
    def chain(ring, a):
        zero = SubsetHandle(ring, [ring.zero_v])
        return [zero], zero
    monkeypatch.setattr(props, "principal_power_chain", chain)
    ring = ZmodRing(6)
    v = _audit(ring, IdentityEndo(ring), "2", "2", "121")
    assert _verdict(v) == (FAILS, {
        "stages": [_REPLAY, {
            "stage": "constant-term",
            "equations": ["2 = 1*2^1", "2 = 2*2^2", "2 = 1*2^3"],
            "stabilized": ["0"], "chain_length": 1}],
        "halt": {"stage": "constant-term", "coefficient": "2"},
    }, "the chain certificate forces the constant-term coefficient to zero "
       "yet it is 2")


def test_induction_audit_fails_where_a_rigid_twist_leaves_a_product():
    # the identity of zmod:8 is not rigid (4*4 = 0); a planted verdict says
    # it is, and 2*2 is no zero product
    ring = ZmodRing(8)
    v = _audit(ring, _planted_rigid(IdentityEndo(ring)), "0", "2", "421")
    assert _verdict(v) == (FAILS, {
        "stages": [_REPLAY, {
            "stage": "constant-term",
            "equations": ["0 = 4*2^1", "0 = 2*2^2", "0 = 1*2^3"],
            "stabilized": ["0"], "chain_length": 3, "conclusion": _FORCED}],
        "halt": {"stage": "product-collapse", "n": 2, "h": "2"},
    }, "rigid collapse failed: the helper constant 2 times the divisor "
       "constant is nonzero")


def test_induction_audit_fails_on_a_coefficient_that_escapes_no_order():
    # the xyq case of test_induction_audit_order_escape_at_scope, with an
    # inner order wrong on x^3 only
    x = XYQuotientRing(construct_ring("gf:2:1"), 8)
    e = IdentityEndo(x)
    g = TruncSeries.constant(x, e, x.x_v(1), 16)
    f = TruncSeries.constant(x, e, x.x_v(3), 16)
    hs = [TruncSeries.constant(x, e, x.x_v(3 - n) if n < 3 else x.one_v, 16)
          for n in (1, 2, 3)]
    order, x3 = x.inner_order, x.x_v(3)
    x.inner_order = lambda v: 1 if v == x3 else order(v)
    v = induction_audit(f, g, hs, 3)
    assert _verdict(v) == (FAILS, {
        "stages": [_REPLAY], "degree": 0,
        "coefficient": "([0];[[0],[0],[1],[0],[0],[0],[0],[0]];"
                       "[[0],[0],[0],[0],[0],[0],[0],[0]])",
    }, "coefficient at degree 0 has inner order 1 < 3, contradicting "
       "divisibility by g^3")


def test_scope_falsifier_is_inconclusive_on_a_power_that_escapes_no_order():
    # the falsifier checks g^depth with the audit's escape test; an inner
    # order wrong on x^5 only stops it at the constant divisor x
    x = XYQuotientRing(construct_ring("gf:2:1"), 8)
    e = IdentityEndo(x)
    order, x5 = x.inner_order, x.x_v(5)
    x.inner_order = lambda v: 1 if v == x5 else order(v)
    v = archimedean_falsifier(x, e, depth=5)
    assert _verdict(v) == (INCONCLUSIVE, {
        "g": TruncSeries.constant(x, e, x.x_v(1), 16).to_text(), "degree": 0,
    }, "a divisor power coefficient kept inner order 1 < 5; the escape "
       "argument needs closer analysis here")


# ---------------------------------------------------------------------------
# quotient gluing along a pair of ideals


def test_first_incomparable_principal_pair():
    assert [e.text for e in
            first_incomparable_principal_pair(construct_ring("zmod:6"))] == \
        ["2", "3"]
    assert [e.text for e in
            first_incomparable_principal_pair(construct_ring("zmod:12"))] == \
        ["2", "3"]
    assert first_incomparable_principal_pair(construct_ring("zmod:8")) is None
    assert first_incomparable_principal_pair(construct_ring("gf:5:1")) is None


def test_quotient_intersection_z6():
    out = quotient_intersection_check(construct_ring("zmod:6"), ("2",),
                                      ("3",))
    assert out["pair"] == {"ideal1": ["0", "2", "4"], "ideal2": ["0", "3"],
                           "intersection": ["0"]}
    assert out["reduced_glue"].status == HOLDS
    assert out["incomparable_not_domain"].status == HOLDS
    glue = out["radical_archimedean_glue"]
    assert glue.status == HYPOTHESIS_NOT_MET
    assert glue.witness["unmet"] == ["ideal element 2 escapes the radical "
                                     "{0}"]


def test_quotient_intersection_z8():
    out = quotient_intersection_check(construct_ring("zmod:8"), ("2",),
                                      ("4",))
    assert out["pair"] == {"ideal1": ["0", "2", "4", "6"],
                           "ideal2": ["0", "4"],
                           "intersection": ["0", "4"]}
    assert out["reduced_glue"].status == HYPOTHESIS_NOT_MET
    assert out["incomparable_not_domain"].status == HYPOTHESIS_NOT_MET
    assert out["radical_archimedean_glue"].status == HOLDS


# ---------------------------------------------------------------------------
# classification reports


_PREDICTION_KEYS = ["model", "side", "property", "predicted", "theorem_tag",
                    "basis"]
_ALLOWED_TAGS = {"Theorem 1.2", "Theorem 3.3", "Theorem 3.4", "Theorem 4.4",
                 "Theorem 4.5", "Corollary 3.5", "Corollary 4.6"}


def test_classify_prediction_shape():
    for rs, es in (("zmod:6", "endo:id"), ("gf:2:2", "endo:frob"),
                   ("xyq:gf:2:1:N=8", "endo:xsq")):
        rep = classify(*_pair(rs, es))
        assert len(rep.predictions) == 8
        for pred in rep.predictions:
            assert list(pred) == _PREDICTION_KEYS
            assert pred["theorem_tag"] in _ALLOWED_TAGS
            assert pred["predicted"] in ("yes", "no", "unknown")
        assert rep.cited_tags() == sorted(set(rep.cited_tags()))
        assert list(rep.as_witness()) == ["ring", "twist", "profile",
                                          "predictions"]


def test_classify_frozen_verdict_matrix():
    rep = classify(*_pair("zmod:6"))
    assert all(p["predicted"] == "no" for p in rep.predictions)
    assert rep.cited_tags() == ["Corollary 3.5", "Corollary 4.6",
                                "Theorem 1.2"]
    rep = classify(*_pair("gf:2:2", "endo:frob"))
    assert all(p["predicted"] == "yes" for p in rep.predictions)
    assert rep.cited_tags() == ["Theorem 1.2", "Theorem 3.3", "Theorem 3.4",
                                "Theorem 4.4", "Theorem 4.5"]
    rep = classify(*_pair("xyq:gf:2:1:N=8", "endo:xsq"))
    assert rep.profile["cardinality"] == "truncated-model"
    got = {(p["model"], p["side"], p["property"]): p["predicted"]
           for p in rep.predictions}
    for side in ("right", "left"):
        assert got[("polynomial", side, "reduced-archimedean")] == "no"
        assert got[("series", side, "reduced-archimedean")] == "yes"
        assert got[("polynomial", side, "archimedean-domain")] == "no"
        assert got[("series", side, "archimedean-domain")] == "no"
    tags = {p["theorem_tag"] for p in rep.predictions
            if p["property"] == "reduced-archimedean"
            and p["model"] == "series"}
    assert tags == {"Theorem 4.4", "Theorem 4.5"}


# ---------------------------------------------------------------------------
# witness hygiene and sampling determinism


def test_witnesses_serialize_without_floats():
    verdicts = []
    for spec in FINITE_SPECS:
        verdicts.append(is_archimedean(construct_ring(spec)))
    verdicts.extend(
        archimedean_consequence_suite(construct_ring("zmod:6")).values())
    z6, e6 = _pair("zmod:6")
    verdicts.append(archimedean_falsifier(z6, e6, seed=0))
    verdicts.append(twisted_power_product_equivalence(*_pair("zmod:8")))
    verdicts.append(derived_archimedean(construct_ring("xyq:gf:2:1:N=8")))
    for v in verdicts:
        assert v.status in ALL_STATUSES
        _assert_no_floats(v.witness)
        json.dumps(v.witness)
    _assert_no_floats(classify(z6, e6).as_witness())


def test_random_sampler_determinism():
    z6, e6 = _pair("zmod:6")
    a = random_poly(z6, e6, derive_rng(5, "t"), max_degree=6, max_terms=4)
    b = random_poly(z6, e6, derive_rng(5, "t"), max_degree=6, max_terms=4)
    assert a == b
    s = random_series(z6, e6, derive_rng(5, "t"), 16)
    t = random_series(z6, e6, derive_rng(5, "t"), 16)
    assert s == t
