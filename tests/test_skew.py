import itertools

import pytest

from oracles import oracle_skew_mul

from skewarch.endos import build_endo
from skewarch.rings import construct_ring
from skewarch.skew import (
    SkewPoly,
    TruncSeries,
    geometric_inverse,
    nilpotency_probe,
    parse_poly_text,
    series_inverse,
    solve_right_divisibility,
)


# ---------------------------------------------------------------------------
# the twisted product over GF(4) against the hand-table oracle


def _lib_poly(bits_list, ring, endo):
    return SkewPoly(ring, endo, [ring.v_of_text("[%d,%d]" % (b & 1, b >> 1))
                                 for b in bits_list])


def test_twisted_product_matches_hand_table_oracle():
    ring = construct_ring("gf:2:2")
    fr = build_endo(ring, "endo:frob")
    polys = list(itertools.product(range(4), repeat=2))
    for fs in polys:
        for gs in polys:
            got = _lib_poly(list(fs), ring, fr) * _lib_poly(list(gs), ring, fr)
            want = _lib_poly(oracle_skew_mul(list(fs), list(gs)), ring, fr)
            assert got == want


def test_twist_moves_through_the_variable():
    ring = construct_ring("gf:2:2")
    fr = build_endo(ring, "endo:frob")
    u = SkewPoly.variable(ring, fr)
    for e in ring.elements():
        c = SkewPoly.constant(ring, fr, e.v)
        twisted = SkewPoly.constant(ring, fr, fr.apply_v(e.v))
        assert u * c == twisted * u


def test_twisted_product_is_associative_but_not_commutative():
    ring = construct_ring("gf:2:2")
    fr = build_endo(ring, "endo:frob")
    w = ring.v_of_text("[0,1]")
    one = ring.one_v
    a = SkewPoly(ring, fr, [w, one])
    b = SkewPoly(ring, fr, [one, w])
    c = SkewPoly(ring, fr, [w, w, one])
    assert (a * b) * c == a * (b * c)
    assert a * b != b * a


# ---------------------------------------------------------------------------
# polynomial shape


def test_poly_normalization_and_degree():
    ring = construct_ring("zmod:4")
    idn = build_endo(ring, "endo:id")
    p = SkewPoly(ring, idn, [1, 2, 0, 0])
    assert p.degree == 1
    z = SkewPoly(ring, idn, [0, 0])
    assert z.is_zero and z.degree == -1
    assert z.to_text() == "[0]@zmod:4;endo:id"
    assert p.order() == 0
    assert SkewPoly(ring, idn, [0, 0, 3]).order() == 2


def test_poly_text_round_trip():
    for text in ["[1,2,1]@zmod:4;endo:id",
                 "[[0,1],[1,1]]@gf:2:2:1,1,1;endo:frob",
                 "[0]@zmod:6;endo:id"]:
        assert parse_poly_text(text).to_text() == text


def test_series_text_round_trip_pads():
    s = parse_poly_text("[1,2]@zmod:4;endo:id;N=5")
    assert isinstance(s, TruncSeries)
    assert s.to_text() == "[1,2,0,0,0,0]@zmod:4;endo:id;N=5"
    assert parse_poly_text(s.to_text()) == s


def test_equal_polynomials_and_series_hash_alike_and_print_their_text():
    ring = construct_ring("gf:2:2")
    frob = build_endo(ring, "endo:frob")
    f = SkewPoly(ring, frob, [1, 2, 0])
    g = parse_poly_text(f.to_text())
    assert f == g and f is not g and hash(f) == hash(g) and len({f, g}) == 1
    assert repr(f) == f.to_text() == "[[1,0],[0,1]]@gf:2:2:1,1,1;endo:frob"
    s = TruncSeries(ring, frob, 3, [1, 2])
    t = parse_poly_text(s.to_text())
    assert s == t and s is not t and hash(s) == hash(t) and len({s, t}) == 1
    assert repr(s) == s.to_text() == "[[1,0],[0,1],[0,0],[0,0]]@gf:2:2:1,1,1;endo:frob;N=3"


def test_parse_rejects_malformed_text():
    for bad in ["[1,2]", "1,2@zmod:4;endo:id", "[1]@zmod:4",
                "[1,2,3]@zmod:4;endo:id;N=1"]:
        with pytest.raises(ValueError):
            parse_poly_text(bad)


@pytest.mark.parametrize("body", ["1,,2", ",1", "1,", " , "])
def test_parse_refuses_an_empty_coefficient_entry(body):
    # dropping it would move every later coefficient down one degree
    for tail in ("", ";N=4"):
        with pytest.raises(ValueError, match="empty entry"):
            parse_poly_text("[%s]@zmod:4;endo:id%s" % (body, tail))
    assert parse_poly_text("[ ]@zmod:4;endo:id").is_zero
    assert parse_poly_text("[]@zmod:4;endo:id;N=4").is_zero


def test_series_rejects_a_negative_precision():
    ring = construct_ring("zmod:4")
    idn = build_endo(ring, "endo:id")
    for text in ["[]@zmod:4;endo:id;N=-1", "[]@zmod:4;endo:id;N=-3"]:
        with pytest.raises(ValueError, match="precision must be >= 0"):
            parse_poly_text(text)
    with pytest.raises(ValueError, match="precision must be >= 0"):
        TruncSeries(ring, idn, -1, [])
    assert TruncSeries(ring, idn, 0, [3]).coeffs == (3,)


def test_series_power_rejects_a_negative_exponent():
    s = parse_poly_text("[2,1]@zmod:4;endo:id;N=4")
    with pytest.raises(ValueError):
        _ = s ** -1
    assert s ** 0 == TruncSeries.constant(s.ring, s.endo, 1, 4)
    assert s ** 1 == s
    assert s ** 3 == s * s * s


def test_series_power_takes_only_its_square_and_multiply_products(monkeypatch):
    # n's bit length less one squarings, and a product for each set bit
    # above the lowest: s^0 and s^1 take none
    s = parse_poly_text("[2,1]@zmod:4;endo:id;N=4")
    products = []
    product = TruncSeries.__mul__

    def counted(a, b):
        products.append(1)
        return product(a, b)

    monkeypatch.setattr(TruncSeries, "__mul__", counted)
    counts = []
    for n in range(10):
        products.clear()
        _ = s ** n
        counts.append(len(products))
    assert counts == [0, 0, 1, 2, 2, 3, 3, 4, 3, 4]


def test_mixed_ring_or_twist_rejected():
    r4 = construct_ring("zmod:4")
    r6 = construct_ring("zmod:6")
    a = SkewPoly.constant(r4, build_endo(r4, "endo:id"), 1)
    b = SkewPoly.constant(r6, build_endo(r6, "endo:id"), 1)
    with pytest.raises(ValueError):
        _ = a * b
    gf = construct_ring("gf:2:2")
    c = SkewPoly.constant(gf, build_endo(gf, "endo:id"), gf.one_v)
    d = SkewPoly.constant(gf, build_endo(gf, "endo:frob"), gf.one_v)
    with pytest.raises(ValueError):
        _ = c + d


def test_operands_outside_their_domain_are_rejected():
    r4, r6 = construct_ring("zmod:4"), construct_ring("zmod:6")
    idn, other = build_endo(r4, "endo:id"), build_endo(r6, "endo:id")
    with pytest.raises(ValueError, match="twist acts on a different ring"):
        SkewPoly(r4, other, [1])
    with pytest.raises(ValueError, match="twist acts on a different ring"):
        TruncSeries(r4, other, 4, [1])
    f = SkewPoly(r4, idn, [0, 1])
    with pytest.raises(ValueError, match="exponent >= 1"):
        f.power(0)
    with pytest.raises(ValueError, match="exponent >= 1"):
        f.first_zero_power(0, 0)
    s4, s5 = TruncSeries(r4, idn, 4, [1]), TruncSeries(r4, idn, 5, [1])
    with pytest.raises(ValueError, match="precision mismatch"):
        _ = s4 * s5
    with pytest.raises(ValueError, match="power must be >= 1"):
        solve_right_divisibility(s4, s4, 0)
    with pytest.raises(ValueError, match=r"shift\(\) needs k >= 0, got -1"):
        f.shift(-1)
    assert f.shift(0) == f
    t4 = construct_ring("tser(zmod:4,N=4)")
    for k in (-1, 5):
        with pytest.raises(ValueError,
                           match="monomial degree must be in 0..4, got %d" % k):
            TruncSeries.monomial(r4, idn, k, 1, 4)
        with pytest.raises(ValueError, match="monomial degree must be in 0..4, got %d" % k):
            t4.monomial_v(k)
    assert TruncSeries.monomial(r4, idn, 4, 3, 4).coeffs == (0, 0, 0, 0, 3)
    assert t4.monomial_v(4) == (0, 0, 0, 0, 1) and t4.monomial_v(0) == t4.one_v


# ---------------------------------------------------------------------------
# inverses of 1 + f*u


def test_geometric_inverse_terminates_on_nilpotent_coefficient():
    ring = construct_ring("zmod:4")
    idn = build_endo(ring, "endo:id")
    res = geometric_inverse(SkewPoly.constant(ring, idn, 2), 6)
    assert res.terminated and res.index == 2        # (2u)^2 = 4u^2 = 0
    assert res.series.coeffs == (1, 2, 0, 0, 0, 0, 0)

    r8 = construct_ring("zmod:8")
    id8 = build_endo(r8, "endo:id")
    res8 = geometric_inverse(SkewPoly.constant(r8, id8, 2), 6)
    assert res8.terminated and res8.index == 3      # (2u)^3 = 8u^3 = 0
    assert res8.series.coeffs == (1, 6, 4, 0, 0, 0, 0)


def test_geometric_inverse_runs_forever_over_a_field():
    ring = construct_ring("gf:2:1")
    idn = build_endo(ring, "endo:id")
    res = geometric_inverse(SkewPoly.constant(ring, idn, ring.one_v), 4)
    assert not res.terminated and res.index is None
    assert res.series.coeffs == tuple([ring.one_v] * 5)


def test_geometric_inverse_with_twist():
    ring = construct_ring("gf:2:2")
    fr = build_endo(ring, "endo:frob")
    w = ring.v_of_text("[0,1]")
    res = geometric_inverse(SkewPoly.constant(ring, fr, w), 4)
    # internal check already multiplies out; pin the leading terms:
    # (w*u)^2 = w*frob(w)*u^2 = w*w^2*u^2 = u^2
    assert res.series.coeffs[0] == ring.one_v
    assert res.series.coeffs[1] == w
    assert res.series.coeffs[2] == ring.one_v
    assert not res.terminated


def test_series_inverse_two_sided():
    ring = construct_ring("zmod:9")
    idn = build_endo(ring, "endo:id")
    g = TruncSeries(ring, idn, 8, [2, 3, 0, 6, 1])
    h = series_inverse(g)
    one = TruncSeries.constant(ring, idn, 1, 8)
    assert g * h == one and h * g == one


def test_series_inverse_needs_unit_constant_term():
    ring = construct_ring("zmod:9")
    idn = build_endo(ring, "endo:id")
    with pytest.raises(ValueError):
        series_inverse(TruncSeries(ring, idn, 4, [3, 1]))


# ---------------------------------------------------------------------------
# nilpotency probe


def test_probe_exact_on_polynomials():
    ring = construct_ring("zmod:4")
    idn = build_endo(ring, "endo:id")
    res = nilpotency_probe(SkewPoly(ring, idn, [0, 2]))
    assert res.zero_power_found and res.index == 2 and res.genuine
    res2 = nilpotency_probe(SkewPoly(ring, idn, [1, 2]), bound=6)
    assert not res2.zero_power_found


def test_probe_flags_window_truncation_as_artifact():
    ring = construct_ring("zmod:4")
    idn = build_endo(ring, "endo:id")
    u = TruncSeries.monomial(ring, idn, 1, 1, 6)
    res = nilpotency_probe(u)
    assert res.zero_power_found and res.index == 7
    assert not res.genuine                  # u^7 = 0 only because of the window


@pytest.mark.parametrize("spec,expected", [
    ("zmod:4", (True, 2, True,
                "zero power with supports inside the half-precision window")),
    ("gf:5:1", (False, None, False,
                "no zero power up to exponent 17 at this precision")),
])
def test_probe_accepts_constant_nilpotents_in_series(spec, expected):
    # 2 is nilpotent in zmod:4 and a unit in gf:5:1
    ring = construct_ring(spec)
    idn = build_endo(ring, "endo:id")
    res = nilpotency_probe(TruncSeries.constant(ring, idn, 2, 6))
    assert (res.zero_power_found, res.index, res.genuine, res.note) == expected


# ---------------------------------------------------------------------------
# divisibility solver


def _f2_setup(precision=6):
    ring = construct_ring("gf:2:1")
    return ring, build_endo(ring, "endo:id"), precision


def test_solver_finds_the_obvious_cofactor():
    ring, idn, N = _f2_setup()
    f = TruncSeries.monomial(ring, idn, 2, ring.one_v, N)
    g = TruncSeries.monomial(ring, idn, 1, ring.one_v, N)
    res = solve_right_divisibility(f, g, 2)
    assert res.status == "found"
    assert res.h.coeffs[0] == ring.one_v
    assert res.h.support() == 0


def test_solver_proves_nonexistence():
    ring, idn, N = _f2_setup()
    f = TruncSeries.monomial(ring, idn, 2, ring.one_v, N)
    g = TruncSeries.monomial(ring, idn, 1, ring.one_v, N)
    res = solve_right_divisibility(f, g, 3)
    assert res.status == "none"
    assert res.h is None


def test_solver_budget_is_distinct_from_nonexistence():
    ring = construct_ring("zmod:4")
    idn = build_endo(ring, "endo:id")
    f = TruncSeries.monomial(ring, idn, 8, 2, 8)
    g = TruncSeries.constant(ring, idn, 2, 8)
    # h_m*2 = 0 allows {0,2} at every level before the target degree
    res = solve_right_divisibility(f, g, 1, node_limit=3)
    assert res.status == "budget-exhausted"
    assert res.nodes > 3
    full = solve_right_divisibility(f, g, 1)
    assert full.status == "found"
    assert full.h.coeffs[8] == 1        # least candidate with 2*c = 2


def test_solver_side_matters_under_a_twist():
    ring = construct_ring("gf:2:2")
    fr = build_endo(ring, "endo:frob")
    w = ring.v_of_text("[0,1]")
    w2 = ring.k_mul(w, w)
    N = 4
    f = TruncSeries.monomial(ring, fr, 1, ring.one_v, N)
    g = TruncSeries.constant(ring, fr, w, N)
    right = solve_right_divisibility(f, g, 1, side="right")
    left = solve_right_divisibility(f, g, 1, side="left")
    assert right.status == "found" and left.status == "found"
    # u = h*w forces h_1*frob(w) = 1, so h_1 = w; on the left h_1 = w^2
    assert right.h.coeffs[1] == w
    assert left.h.coeffs[1] == w2
    assert right.h != left.h


def test_solver_rejects_an_unknown_side():
    ring, idn, N = _f2_setup()
    f = TruncSeries.monomial(ring, idn, 2, ring.one_v, N)
    g = TruncSeries.monomial(ring, idn, 1, ring.one_v, N)
    with pytest.raises(ValueError, match="side must be"):
        solve_right_divisibility(f, g, 2, side="sideways")


def test_solver_replays_witnesses_on_a_twisted_instance():
    ring = construct_ring("gf:2:2")
    fr = build_endo(ring, "endo:frob")
    w = ring.v_of_text("[0,1]")
    N = 5
    g = TruncSeries(ring, fr, N, [w, ring.one_v])
    h = TruncSeries(ring, fr, N, [ring.one_v, w, ring.zero_v, w])
    f = h * (g ** 2)
    res = solve_right_divisibility(f, g, 2)
    assert res.status == "found"
    assert res.h * (g ** 2) == f        # witness replay, maybe not h itself
