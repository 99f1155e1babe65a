import math

import pytest

from skewarch import rings
from skewarch.endos import SquareVariableEndo, TableEndo
from skewarch.rings import (
    GaloisFieldRing,
    NonEnumerableError,
    RingConstructionError,
    RingMismatchError,
    SubsetHandle,
    TruncSeriesRing,
    XYQuotientRing,
    ZmodRing,
    construct_ring,
    idempotents,
    is_domain,
    is_nilpotent,
    is_reduced,
    is_unit,
    jacobson_radical,
    nonunits,
    principal_power_chain,
    quotient_by_ideal,
    scan_domain,
    subring_generated,
    units,
    zero_divisors,
)


# ---------------------------------------------------------------------------
# plain-integer oracles for Z/n, independent of the library


def _zn_units(n):
    return sorted(a for a in range(n) if math.gcd(a, n) == 1)


def _zn_zero_divisors(n):
    out = set()
    for a in range(n):
        for b in range(n):
            if b != 0 and (a * b) % n == 0:
                out.add(a)
    out.add(0)
    return sorted(out)


def _zn_idempotents(n):
    return sorted(a for a in range(n) if (a * a) % n == a)


def _zn_nilpotent(n, a):
    p = a % n
    seen = set()
    while p not in seen:
        if p == 0:
            return True
        seen.add(p)
        p = (p * a) % n
    return False


def _zn_jacobson(n):
    # quasi-regularity: r is radical iff 1 - a*r is a unit for every a
    us = set(_zn_units(n))
    return sorted(r for r in range(n)
                  if all((1 - a * r) % n in us for a in range(n)))


def _zn_chain(n, a):
    chain = []
    seen = set()
    power = a % n
    while True:
        ideal = tuple(sorted({(r * power) % n for r in range(n)}))
        if ideal in seen:
            return chain
        seen.add(ideal)
        chain.append(list(ideal))
        power = (power * a) % n


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12])
def test_zmod_predicates_match_integer_oracle(n):
    ring = construct_ring("zmod:%d" % n)
    assert [int(t) for t in units(ring).texts()] == _zn_units(n)
    assert [int(t) for t in zero_divisors(ring).texts()] == _zn_zero_divisors(n)
    assert [int(t) for t in idempotents(ring).texts()] == _zn_idempotents(n)
    assert [int(t) for t in jacobson_radical(ring).texts()] == _zn_jacobson(n)
    for a in range(n):
        got = is_nilpotent(ring, ring.element(a))
        assert got.nilpotent == _zn_nilpotent(n, a)
        assert got.exact


@pytest.mark.parametrize("n", [6, 8, 12])
def test_zmod_power_chains_match_integer_oracle(n):
    ring = construct_ring("zmod:%d" % n)
    for a in range(n):
        chain, stab = principal_power_chain(ring, ring.element(a))
        oracle = _zn_chain(n, a)
        assert [[int(t) for t in c.texts()] for c in chain] == oracle
        assert [int(t) for t in stab.texts()] == oracle[-1]


def test_zmod_arithmetic_matches_integer_oracle():
    ring = construct_ring("zmod:12")
    for a in range(12):
        for b in range(12):
            x, y = ring.element(a), ring.element(b)
            assert (x + y).text == str((a + b) % 12)
            assert (x - y).text == str((a - b) % 12)
            assert (x * y).text == str((a * b) % 12)
    assert (ring.element(7) ** 5).text == str(pow(7, 5, 12))
    assert (-ring.element(5)).text == "7"


def test_zmod_frozen_structure():
    z6 = construct_ring("zmod:6")
    assert units(z6).texts() == ["1", "5"]
    assert zero_divisors(z6).texts() == ["0", "2", "3", "4"]
    assert idempotents(z6).texts() == ["0", "1", "3", "4"]
    assert jacobson_radical(z6).texts() == ["0"]
    assert is_reduced(z6).reduced
    assert not is_domain(z6).domain
    assert tuple(w.text for w in is_domain(z6).witness) == ("2", "3")

    z8 = construct_ring("zmod:8")
    assert jacobson_radical(z8).texts() == ["0", "2", "4", "6"]
    chain, stab = principal_power_chain(z8, z8.element(2))
    assert [c.texts() for c in chain] == [["0", "2", "4", "6"], ["0", "4"], ["0"]]
    assert stab.texts() == ["0"]
    r = is_nilpotent(z8, z8.element(2))
    assert r.nilpotent and r.index == 3

    z12 = construct_ring("zmod:12")
    chain, stab = principal_power_chain(z12, z12.element(2))
    assert stab.texts() == ["0", "4", "8"]   # never shrinks to zero
    assert jacobson_radical(z12).texts() == ["0", "6"]


def test_unit_inverses_round_trip():
    for spec in ["zmod:9", "gf:5:1", "gf:2:2"]:
        ring = construct_ring(spec)
        for u in units(ring).texts():
            e = ring.from_text(u)
            inv = is_unit(ring, e)
            assert inv is not None
            assert (e * inv).text == ring.one.text
            assert (inv * e).text == ring.one.text
        for nu in nonunits(ring).texts():
            assert is_unit(ring, ring.from_text(nu)) is None


# ---------------------------------------------------------------------------
# Galois fields against hand tables


# GF(4) as 2-bit integers c0 | c1<<1 with modulus t^2 + t + 1
_GF4_MUL = [
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
]


def _gf4_lib_value(bits, ring):
    return ring.from_text("[%d,%d]" % (bits & 1, bits >> 1))


def test_gf4_matches_hand_multiplication_table():
    ring = construct_ring("gf:2:2")
    assert ring.spec_text == "gf:2:2:1,1,1"
    for a in range(4):
        for b in range(4):
            x, y = _gf4_lib_value(a, ring), _gf4_lib_value(b, ring)
            assert (x * y).text == _gf4_lib_value(_GF4_MUL[a][b], ring).text
            assert (x + y).text == _gf4_lib_value(a ^ b, ring).text
    assert units(ring).texts() == ["[1,0]", "[0,1]", "[1,1]"]
    assert is_domain(ring).domain
    assert is_reduced(ring).reduced
    assert jacobson_radical(ring).texts() == ["[0,0]"]


def test_gf_default_moduli_are_least_irreducible():
    # t^2 + 1 has no root mod 3; t^2 + 1 factors mod 5 but t^2 + 2 does not
    assert construct_ring("gf:3:2").spec_text == "gf:3:2:1,0,1"
    assert construct_ring("gf:5:2").spec_text == "gf:5:2:2,0,1"
    assert construct_ring("gf:2:3").spec_text == "gf:2:3:1,1,0,1"


def test_gf_rejects_reducible_modulus():
    with pytest.raises(RingConstructionError):
        construct_ring("gf:2:2:1,0,1")     # t^2 + 1 = (t+1)^2 over GF(2)
    with pytest.raises(RingConstructionError):
        construct_ring("gf:4:1")           # 4 is not prime
    with pytest.raises(RingConstructionError):
        construct_ring("gf:2:2:1,1")       # degree too low


def test_gf25_element_count_and_units():
    ring = construct_ring("gf:5:2")
    assert ring.card == 25
    assert len(units(ring).texts()) == 24
    assert is_domain(ring).domain


# ---------------------------------------------------------------------------
# products, subrings, quotients


def test_product_ring_componentwise():
    ring = construct_ring("prod(zmod:2,zmod:3)")
    assert ring.card == 6
    a = ring.from_text("(1,2)")
    b = ring.from_text("(1,1)")
    assert (a * b).text == "(1,2)"
    assert (a + b).text == "(0,0)"
    assert units(ring).texts() == ["(1,1)", "(1,2)"]
    assert not is_domain(ring).domain
    assert is_reduced(ring).reduced


@pytest.mark.parametrize("spec", ["prod(zmod:2,gf:2:2)", "prod(zmod:2,zmod:3,zmod:2)"])
def test_product_kernels_act_factor_by_factor_on_two_and_three_factors(spec):
    ring = construct_ring(spec)
    for x in ring.values():
        for y in ring.values():
            assert ring.k_add(x, y) == tuple(f.k_add(a, b)
                                             for f, a, b in zip(ring.factors, x, y))
            assert ring.k_mul(x, y) == tuple(f.k_mul(a, b)
                                             for f, a, b in zip(ring.factors, x, y))


def test_product_of_two_boolean_factors_is_all_idempotent():
    ring = construct_ring("prod(zmod:2,zmod:2)")
    assert idempotents(ring).texts() == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    assert zero_divisors(ring).texts() == ["(0,0)", "(0,1)", "(1,0)"]


def test_prime_subring_of_boolean_product_is_diagonal():
    ring = construct_ring("sub(prod(zmod:2,zmod:2);)")
    assert sorted(e.text for e in ring.elements()) == ["(0,0)", "(1,1)"]
    assert units(ring).texts() == ["(1,1)"]


def test_subring_generated_helper_matches_spec_parse():
    ambient = construct_ring("prod(zmod:2,zmod:2)")
    handle, embed, cond = subring_generated(ambient, [ambient.from_text("(1,0)")])
    # (1,0) together with unity generates everything
    assert handle.card == 4
    assert embed(handle.from_text("(1,0)")).text == "(1,0)"
    assert cond["ambient_units_in_subring"] == ["(1,1)"]
    assert units(handle).texts() == cond["ambient_units_in_subring"]


def test_subring_unit_condition_always_holds_in_finite_rings():
    # a unit of a finite ring has finite multiplicative order, so any subring
    # containing it also contains its inverse as a power of it
    ambient = construct_ring("zmod:8")
    handle, _, cond = subring_generated(ambient, [])
    assert handle.card == 8
    assert units(handle).texts() == cond["ambient_units_in_subring"]
    assert cond["ambient_units_in_subring"] == ["1", "3", "5", "7"]


def test_quotient_of_z12_by_6_is_z6():
    ring = construct_ring("quot(zmod:12;6)")
    assert ring.card == 6
    assert sorted(int(e.text) for e in ring.elements()) == [0, 1, 2, 3, 4, 5]
    assert len(units(ring).texts()) == 2
    assert idempotents(ring).texts() == ["0", "1", "3", "4"]


def test_quotient_by_ideal_helper_projects():
    z12 = construct_ring("zmod:12")
    handle, project = quotient_by_ideal(z12, [z12.element(4)])
    # ideal {0,4,8}: quotient is Z/4
    assert handle.card == 4
    assert project(z12.element(7)).text == "3"
    assert project(z12.element(4)).text == "0"


@pytest.mark.parametrize("spec,helper,gens,canonical", [
    ("quot(zmod:12;14)", quotient_by_ideal, ["2"], "quot(zmod:12;2)"),
    ("sub(zmod:12;4,2,2)", subring_generated, ["2", "4"], "sub(zmod:12;2,4)"),
], ids=["quot", "sub"])
def test_spec_and_helper_build_one_object_with_one_canonical_text(
        spec, helper, gens, canonical):
    # the generators are read once, each value kept once, in value order
    parsed = construct_ring(spec)
    built = helper(construct_ring("zmod:12"), gens)[0]
    assert parsed is built and parsed.spec_text == canonical
    assert construct_ring(canonical) is parsed
    assert parsed.parent is construct_ring("zmod:12")


def test_a_sub_or_quot_is_built_over_the_ring_it_is_given():
    # the parent is not a cached ring, and a kernel planted on it reaches
    # the quotient's products
    parent = ZmodRing(12)
    sub = subring_generated(parent, ["3"])[0]
    quo = quotient_by_ideal(parent, ["4"])[0]
    assert sub.parent is parent and quo.parent is parent
    assert quo is quotient_by_ideal(parent, [parent.element(4), "4"])[0]
    assert quo == construct_ring("quot(zmod:12;4)")
    assert quo is not construct_ring("quot(zmod:12;4)")
    mul = parent.k_mul
    parent.k_mul = lambda x, y: 2 if (x, y) == (3, 3) else mul(x, y)
    assert quo.k_mul(3, 3) == 2 and sub.k_mul(3, 3) == 2


def test_helpers_raise_a_construction_error_for_a_bad_generator_text():
    z12 = construct_ring("zmod:12")
    for helper in (subring_generated, quotient_by_ideal):
        with pytest.raises(RingConstructionError) as err:
            helper(z12, ["2", "x"])
        assert str(err.value) == "bad element 'x' for zmod:12"


def test_embed_and_project_refuse_an_element_of_another_ring():
    z12 = construct_ring("zmod:12")
    _, embed, _ = subring_generated(z12, ["3"])
    _, project = quotient_by_ideal(z12, ["4"])
    with pytest.raises(RingMismatchError, match="element not in the subring"):
        embed(z12.element(3))
    with pytest.raises(RingMismatchError, match="not in the ambient ring"):
        project(construct_ring("zmod:6").element(1))


# ---------------------------------------------------------------------------
# truncated models


def test_trunc_series_ring_basics():
    ring = construct_ring("tser(gf:2:1,N=8)")
    assert ring.truncated and ring.card is None
    assert ring.scope == 4
    t = ring.element(ring.monomial_v(1))
    t4 = ring.element(ring.monomial_v(4))
    assert (t4 * t4).text == "[[0],[0],[0],[0],[0],[0],[0],[0],[1]]"
    with pytest.raises(NonEnumerableError):
        ring.values()
    # model truncation would kill t^9, but the probe widens before judging
    assert not is_nilpotent(ring, t).nilpotent
    zero = is_nilpotent(ring, ring.zero)
    assert (zero.nilpotent, zero.index, zero.exact) == (True, 1, True)


@pytest.mark.parametrize("spec,text,expected", [
    ("tser(zmod:4,N=6)", "[2]", (True, 2, True, "zero power reached in widened model")),
    ("tser(gf:2:1,N=4)", "[[0],[0],[1]]",
     (True, 5, False, "zero power reached; truncation artifact possible")),
])
def test_truncated_nilpotence_replays_in_the_widened_model(spec, text, expected):
    # u^2 has u^10 = 0 only because the widened window ends at u^8
    ring = construct_ring(spec)
    got = is_nilpotent(ring, ring.from_text(text))
    assert (got.nilpotent, got.index, got.exact, got.note) == expected


def test_a_truncated_model_reads_the_parts_it_was_built_from():
    field = GaloisFieldRing(2, 1, (0, 1))
    assert TruncSeriesRing(field, 4).widen().base is field
    ring = XYQuotientRing(field, 8)
    assert ring.series.base is field and ring.widen().field is field
    assert ring.widen() is ring.widen() is scan_domain(ring).ring
    assert SquareVariableEndo(ring).widened().ring is ring.widen()
    calls, mul = [], field.k_mul
    field.k_mul = lambda x, y: calls.append((x, y)) or mul(x, y)
    x = ring.x_v(1)
    assert ring.k_mul(x, x) == ring.x_v(2) and calls
    field.has_inverse_v = lambda v: False
    assert not ring.has_inverse_v(ring.one_v)


def test_trunc_series_unit_iff_constant_unit():
    ring = construct_ring("tser(zmod:4,N=6)")
    g = ring.from_text("[1,2,3]")
    inv = ring.is_unit_v(g.v)
    assert inv is not None
    assert ring.k_mul(g.v, inv) == ring.one_v
    assert ring.is_unit_v(ring.from_text("[2,1]").v) is None


def _pair_scan(ring):
    """is_domain by the plain pair scan: the first pair of nonzero scope
    values, in scope order, whose lifts multiply to zero in the widened
    copy, or None."""
    dom = scan_domain(ring)
    zero = dom.ring.zero_v
    nonzero = [(a, la) for a, la in zip(dom.values, dom.lifted) if la != zero]
    for a, la in nonzero:
        for b, lb in nonzero:
            if dom.ring.k_mul(la, lb) == zero:
                return a, b
    return None


@pytest.mark.parametrize("spec", ["tser(gf:3:1,N=4)", "tser(gf:2:2,N=4)",
                                  "tser(zmod:4,N=4)", "tser(prod(zmod:2,zmod:2),N=3)"])
def test_series_domain_answer_matches_the_pair_scan(spec, monkeypatch):
    """Over a domain base the answer needs no product; otherwise the scan
    finds the same first witness."""
    witness = _pair_scan(construct_ring(spec))
    cached = construct_ring(spec)
    ring = TruncSeriesRing(cached.base, cached.precision)   # nothing memoized
    calls = []
    mul = TruncSeriesRing.k_mul
    monkeypatch.setattr(TruncSeriesRing, "k_mul",
                        lambda self, x, y: calls.append(1) or mul(self, x, y))
    got = is_domain(ring)
    assert got.exact is False
    if witness is None:
        assert got.domain and got.witness is None and calls == []
        assert got.note == scan_domain(ring).note("pair scan")
    else:
        assert not got.domain and calls
        assert tuple(w.v for w in got.witness) == witness


def test_xy_quotient_ring_relations():
    ring = construct_ring("xyq:gf:2:1:N=8")
    x = ring.element(ring.x_v(1))
    y = ring.element(ring.y_v(1))
    assert (x * y).v == ring.zero_v
    assert (y * x).v == ring.zero_v
    assert (x * x).v == ring.x_v(2)
    one = ring.one
    u = one + x          # unit: nonzero constant term
    inv = ring.is_unit_v(u.v)
    assert inv is not None and ring.k_mul(u.v, inv) == ring.one_v
    assert ring.is_unit_v(x.v) is None
    assert is_reduced(ring).reduced
    assert not is_domain(ring).domain       # x * y = 0
    assert not is_nilpotent(ring, x).nilpotent
    assert not is_nilpotent(ring, x + y).nilpotent
    zero = is_nilpotent(ring, ring.zero)
    assert (zero.nilpotent, zero.index, zero.exact) == (True, 1, True)


def test_xy_quotient_scope_enumeration_puts_nonunits_first():
    ring = construct_ring("xyq:gf:2:1:N=2")
    vals = ring.scope_values()
    assert len(vals) == 2 ** (1 + 2 * ring.scope)
    assert vals[0] == ring.zero_v


def test_a_scope_past_the_enumeration_budget_shrinks_or_is_refused():
    # support <= s holds 16^(s+1) values: the scope 5 of N = 10 shrinks to
    # 3, whose 65,536 values fit the budget, and support 4 is refused
    ring = construct_ring("tser(zmod:16,N=10)")
    assert (ring.scope, ring.bounded_support()) == (5, 3)
    with pytest.raises(NonEnumerableError, match="too large to scan"):
        ring.scope_values(max_support=4)


def test_scope_value_numbers_the_scope_listing():
    for spec in ["xyq:gf:2:1:N=8", "xyq:gf:3:1:N=4", "tser(zmod:4,N=6)",
                 "tser(prod(zmod:2,zmod:3),N=4)"]:
        ring = construct_ring(spec)
        for s in range(ring.bounded_support() + 1):
            listed = ring.scope_values(max_support=s)
            assert ring.scope_size(s) == len(listed)
            assert [ring.scope_value(i, s) for i in range(len(listed))] == listed


def test_widened_copy_samples_its_scope_without_listing_it():
    # construction samples no values, so the 131,072-value scope of the
    # widened two-variable model is listed only by a scan that asks for it
    ring = construct_ring("xyq:gf:2:1:N=16")
    dom = scan_domain(ring)
    assert dom.size == 2 ** 17
    assert "values" not in vars(dom)


# ---------------------------------------------------------------------------
# parsing, canonical text, construction failures


def test_spec_texts_round_trip():
    for text in [
        "zmod:6",
        "gf:2:2:1,1,1",
        "prod(zmod:2,zmod:3)",
        "sub(prod(zmod:2,zmod:2);)",
        "quot(zmod:12;6)",
        "tser(gf:2:1:0,1,N=8)",
        "xyq:gf:2:1:0,1:N=8",
    ]:
        assert construct_ring(text).spec_text == text


def test_construct_ring_is_memoized():
    assert construct_ring("zmod:6") is construct_ring("zmod:6")
    # default modulus fills in to the same canonical object
    assert construct_ring("gf:2:2") is construct_ring("gf:2:2:1,1,1")
    assert construct_ring("prod(zmod:2, zmod:3)") is construct_ring("prod(zmod:2,zmod:3)")


def test_texts_naming_one_field_build_its_tables_once(monkeypatch):
    monkeypatch.setattr(rings, "_RING_CACHE", {})
    builds, build = [], GaloisFieldRing._build_tables
    monkeypatch.setattr(GaloisFieldRing, "_build_tables",
                        lambda self: builds.append(self.spec_text) or build(self))
    field = construct_ring("gf:2:3")
    for text in ["gf:2:3:1,1,0,1", " gf:2:3 ", "xyq:gf:2:3:N=4", "tser(gf:2:3,N=2)",
                 "prod(gf:2:3:1,1,0,1,zmod:2)"]:
        construct_ring(text)
    assert builds == ["gf:2:3:1,1,0,1"]
    assert construct_ring("xyq:gf:2:3:N=4").field is field


def test_a_text_seen_before_is_not_parsed_again(monkeypatch):
    monkeypatch.setattr(rings, "_RING_CACHE", {})
    calls = []
    for name in ("split_top", "default_irreducible"):
        helper = getattr(rings, name)
        monkeypatch.setattr(rings, name, lambda *args, _helper=helper:
                            calls.append(args) or _helper(*args))
    texts = ["prod(gf:2:2,zmod:3)", "quot(zmod:12;4)", "xyq:gf:2:1:N=8"]
    first = [construct_ring(text) for text in texts]
    assert calls
    calls.clear()
    assert [construct_ring(text) for text in texts] == first
    assert calls == []


@pytest.mark.parametrize("text", ["gf:2:40", "xyq:gf:2:40:N=8",
                                  "gf:1000000000000000003:1", "gf:2:100000000"])
def test_an_over_cap_field_is_refused_before_any_primality_or_modulus_work(
        monkeypatch, text):
    calls = []
    for name in ("_is_prime", "_pmod"):
        helper = getattr(rings, name)
        monkeypatch.setattr(rings, name, lambda *args, _helper=helper:
                            calls.append(args) or _helper(*args))
    with pytest.raises(RingConstructionError) as err:
        construct_ring(text)
    assert "beyond the enumeration cap 65536" in str(err.value)
    assert calls == []


def test_construction_failures():
    for bad in ["zmod:1", "zmod:0", "gf:6:1", "xyq:gf:2:1", "xyq:zmod:4:N=8",
                "prod(zmod:2)", "mystery:5", "xyq:gf:2:1:N=1",
                # finite but beyond the enumeration cap
                "zmod:70000", "prod(zmod:300,zmod:300)",
                # an ideal that contains 1: zero would equal one
                "quot(zmod:6;1)", "quot(prod(zmod:2,zmod:3);(1,1))",
                # a generator text naming no value of the parent
                "sub(zmod:12;x)", "quot(gf:2:2;[1])", "sub(quot(zmod:12;4);(1,0))",
                "quot(sub(prod(zmod:2,zmod:2););(1,0))"]:
        with pytest.raises(RingConstructionError):
            construct_ring(bad)
    # a truncated model as a part: each construction keeps its own message
    for bad, message in [
            ("prod(tser(zmod:2,N=4),zmod:2)", "product factors must be finite rings"),
            ("prod(xyq:gf:2:1:N=4,zmod:2)", "product factors must be finite rings"),
            ("tser(tser(zmod:2,N=4),N=4)", "tser base must be a finite ring"),
            ("sub(tser(zmod:2,N=40);[0,1])", "sub parent must be a finite ring"),
            ("quot(tser(zmod:2,N=4);2)", "quot parent must be a finite ring")]:
        with pytest.raises(RingConstructionError) as err:
            construct_ring(bad)
        assert str(err.value) == message


@pytest.mark.parametrize("bad", [
    "zmod:x", "xyq:gf:2:1:N=x", "gf:2", "gf:x:1", "gf:2:2:1,x,1", "sub(zmod:6)",
    "tser(zmod:2)", "tser(zmod:2,N=x)", "prod(zmod:2,nope)", "gf:2:0", "gf:1:3",
    "tser(zmod:2,N=0)"])
def test_malformed_spec_texts_raise_a_construction_error(bad):
    with pytest.raises(RingConstructionError):
        construct_ring(bad)


def test_a_factor_keeps_its_own_construction_error():
    with pytest.raises(RingConstructionError) as err:
        construct_ring("prod(zmod:70000,zmod:2)")
    assert str(err.value) == ("zmod:70000 has 70000 elements, beyond the "
                              "enumeration cap 65536")


def test_helpers_refuse_a_truncated_parent_before_sorting_generators():
    # the generators are put in the parent's value order, which a
    # truncated model does not have; the refusal is construction's own
    ring = construct_ring("tser(zmod:2,N=4)")
    with pytest.raises(RingConstructionError) as err:
        subring_generated(ring, ["[0,1]", "[1,1]"])
    assert str(err.value) == "sub parent must be a finite ring"
    with pytest.raises(RingConstructionError) as err:
        quotient_by_ideal(ring, ["[0,1]", "[1,1]"])
    assert str(err.value) == "quot parent must be a finite ring"


def test_cross_ring_arithmetic_rejected():
    a = construct_ring("zmod:6").element(2)
    b = construct_ring("zmod:8").element(2)
    with pytest.raises(RingMismatchError):
        _ = a + b
    with pytest.raises(RingMismatchError):
        _ = a * b


def test_elements_take_only_elements_and_no_negative_power():
    two = construct_ring("zmod:6").element(2)
    with pytest.raises(TypeError, match="cannot combine 1 with ring element"):
        _ = two + 1
    with pytest.raises(ValueError, match="negative powers"):
        _ = two ** -1


def test_equal_elements_and_subsets_of_equal_rings_hash_alike():
    ring, fresh = construct_ring("zmod:6"), ZmodRing(6)
    assert fresh is not ring and fresh == ring
    a, b = ring.element(2), fresh.from_text("2")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    us, listed = units(ring), SubsetHandle(fresh, [5, 1])
    assert us == listed and hash(us) == hash(listed) and len({us, listed}) == 1
    assert us != SubsetHandle(ring, [1]) and us != {1, 5}
    assert repr(us) == "{1,5}" and repr(SubsetHandle(ring, [])) == "{}"


def test_generators_of_another_ring_are_rejected():
    z12, z6 = construct_ring("zmod:12"), construct_ring("zmod:6")
    two = z6.from_text("2")
    for gens in ([two], SubsetHandle(z6, [2])):
        with pytest.raises(RingMismatchError):
            quotient_by_ideal(z12, gens)
        with pytest.raises(RingMismatchError):
            subring_generated(z12, gens)
    # the same generators given as z12's own values are accepted
    assert quotient_by_ideal(z12, SubsetHandle(z12, [2]))[0].spec_text == "quot(zmod:12;2)"
    assert quotient_by_ideal(z12, [z12.from_text("2")])[0].card == 2


@pytest.mark.parametrize("spec,bad", [
    ("zmod:6", "x"), ("gf:2:2", "1,0"), ("gf:2:2", "[1]"), ("prod(zmod:2,zmod:3)", "1,1"),
    ("prod(zmod:2,zmod:3)", "(1)"), ("tser(zmod:4,N=2)", "1,2"),
    ("tser(zmod:4,N=2)", "[1,2,3,0]"), ("xyq:gf:2:1:N=2", "[1]"),
    ("xyq:gf:2:1:N=2", "([1];[])"), ("xyq:gf:2:1:N=2", "([1];1;[])"),
    ("xyq:gf:2:1:N=2", "([1];[];[[1],[0],[1]])")])
def test_a_malformed_element_text_raises_a_value_error(spec, bad):
    with pytest.raises(ValueError):
        construct_ring(spec).from_text(bad)


def test_a_field_parses_each_element_text_once():
    # a Frobenius table names every value twice, as a source and as an
    # image; a malformed text is refused again, so nothing was kept for it
    field = GaloisFieldRing(2, 4, rings.default_irreducible(2, 4))
    parsed, value = [], field._value
    field._value = lambda coords: parsed.append(coords) or value(coords)
    TableEndo(field, "table:frob", "\n".join(
        "%s -> %s" % (field.text_of_v(v), field.text_of_v(field.k_mul(v, v)))
        for v in field.values()))
    assert len(parsed) == field.card == 16
    for bad in ("[1]", "[1,x,0,0]", "1,0,0,0"):
        for _ in range(2):
            with pytest.raises(ValueError):
                field.v_of_text(bad)
    assert len(parsed) == 16


@pytest.mark.parametrize("fresh", [
    lambda: (ZmodRing(8), 3),
    lambda: (XYQuotientRing(construct_ring("gf:2:1"), 4),
             ((1, 1, 0, 0, 0), (1, 0, 1, 0, 0))),
], ids=["zmod:8", "xyq:gf:2:1:N=4"])
def test_a_power_takes_only_its_square_and_multiply_products(fresh):
    # n's bit length less one squarings, and a product for each set bit
    # above the lowest, none of them by one: x^1 takes no product
    ring, x = fresh()
    mul, calls = ring.k_mul, []
    ring.k_mul = lambda a, b: calls.append(1) or mul(a, b)
    expected = ring.one_v
    for n in range(10):
        calls.clear()
        assert ring.k_pow(x, n) == expected
        assert len(calls) == (n.bit_length() + bin(n).count("1") - 2 if n else 0)
        expected = mul(expected, x)


def test_element_text_round_trip():
    for spec in ["zmod:6", "gf:2:2", "prod(zmod:2,zmod:3)", "tser(zmod:4,N=4)",
                 "xyq:gf:2:1:N=4"]:
        ring = construct_ring(spec)
        pool = ring.elements() if not ring.truncated else [
            ring.element(v) for v in ring.scope_values()]
        for e in pool:
            assert ring.from_text(e.text) == e
