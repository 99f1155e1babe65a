"""Acceptance criteria, one test per criterion.

Each test prints one ``criterion N: PASS/FAIL - label`` line; run with
``pytest -s tests/test_acceptance.py`` to see every line as it happens.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

from skewarch.endos import build_endo, is_rigid, preserves_nonunits
from skewarch.props import (
    FAILS,
    HOLDS,
    HOLDS_BY_THEOREM,
    HYPOTHESIS_NOT_MET,
    archimedean_consequence_suite,
    archimedean_falsifier,
    archimedean_field_census,
    classify,
    induction_audit,
    is_archimedean,
    quotient_intersection_check,
    random_poly,
    rigidity_decomposition_verdict,
    twisted_power_product_equivalence,
)
from skewarch.prng import derive_rng
from skewarch.registry import registry_entries
from skewarch.rings import construct_ring
from skewarch.skew import (
    SkewPoly,
    TruncSeries,
    geometric_inverse,
    nilpotency_probe,
    parse_poly_text,
)

from oracles import oracle_power_chain
from test_golden import GOLDEN_JSON, _digest


@contextmanager
def _criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print("criterion %d: FAIL - %s" % (number, label))
        raise
    print("criterion %d: PASS - %s" % (number, label))


def test_criterion_1_finite_ring_ground_truth():
    with _criterion(1, "chain verdicts on the calibration rings in < 1 s"):
        start = time.perf_counter()
        for spec in ("zmod:8", "gf:2:2", "gf:5:1"):
            ring = construct_ring(spec)
            for side in ("right", "left"):
                assert is_archimedean(ring, side=side).status == HOLDS
        z6 = construct_ring("zmod:6")
        for side in ("right", "left"):
            v = is_archimedean(z6, side=side)
            assert v.status == FAILS
            assert v.witness == {"a": "2", "stabilized": ["0", "2", "4"]}
        prod = construct_ring("prod(zmod:2,zmod:2)")
        for side in ("right", "left"):
            v = is_archimedean(prod, side=side)
            assert v.status == FAILS
            # the scan reports the first failing nonunit in value order;
            # replay both it and the mirror witness (1,0) by oracle
            reported = prod.v_of_text(v.witness["a"])
            assert oracle_power_chain(prod, reported, side)[-1] != {prod.zero_v}
            mirror = prod.v_of_text("(1,0)")
            assert prod.is_unit_v(mirror) is None
            assert oracle_power_chain(prod, mirror, side)[-1] != {prod.zero_v}
        assert time.perf_counter() - start < 1.0


def test_criterion_2_consequence_clauses():
    with _criterion(2, "all four consequence clauses on chain-condition "
                       "rings; contrapositive idempotent on zmod:6"):
        clauses = ("sandwich_units", "zero_divisors_in_radical",
                   "trivial_idempotents", "dedekind_finite")
        covered = set()
        for spec in {e.ring_spec for e in registry_entries()}:
            ring = construct_ring(spec)
            if ring.truncated:
                continue
            if is_archimedean(ring).status != HOLDS:
                continue
            out = archimedean_consequence_suite(ring)
            assert all(out[c].status == HOLDS for c in clauses), spec
            assert out["aggregate"].status == HOLDS
            covered.add(spec)
        assert covered == {"zmod:8", "gf:2:2", "gf:5:1"}
        z6 = construct_ring("zmod:6")
        out = archimedean_consequence_suite(z6)
        assert out["aggregate"].status == HYPOTHESIS_NOT_MET
        assert out["trivial_idempotents"].witness == {"e": "3"}
        e = z6.v_of_text("3")
        assert z6.k_mul(e, e) == e and e not in (z6.zero_v, z6.one_v)


def test_criterion_3_field_product_census():
    with _criterion(3, "census of field products: chain condition exactly "
                       "on one-factor products, in < 10 s"):
        start = time.perf_counter()
        rows = archimedean_field_census()
        elapsed = time.perf_counter() - start
        assert len(rows) == 34
        for row in rows:
            assert row["regular"] is True
            assert row["archimedean"] == row["division"] == \
                (row["factors"] == 1), row["spec"]
        assert elapsed < 10.0


def test_criterion_4_rigidity_biconditional():
    with _criterion(4, "rigid iff compatible and reduced on every "
                       "registry pair"):
        for entry in registry_entries():
            _, endo = entry.build()
            v = rigidity_decomposition_verdict(endo)
            assert v.status == HOLDS, entry.id
            s = v.witness
            assert (s["rigid"] == "yes") == \
                (s["compatible"] == "yes" and s["reduced"] == "yes")


def test_criterion_5_geometric_inverse():
    with _criterion(5, "geometric expansion inverts 1 + f*u exactly; "
                       "termination index matches the nilpotency probe"):
        terminations = 0
        for entry in registry_entries():
            ring, endo = entry.build()
            rng = derive_rng(42, "acceptance/geometric/%s" % entry.id)
            one = SkewPoly.constant(ring, endo, ring.one_v)
            unity = one.truncate(16)
            count = 0
            while count < 200:
                f = random_poly(ring, endo, rng)
                if f.is_zero:
                    continue
                count += 1
                result = geometric_inverse(f, 16)
                fu = f.shift(1)
                lhs = (one + fu).truncate(16)
                assert lhs * result.series == unity
                assert result.series * lhs == unity
                if result.terminated:
                    terminations += 1
                    probe = nilpotency_probe(fu)
                    assert probe.zero_power_found
                    assert probe.index == result.index
        assert terminations > 0


def test_criterion_6_twisted_power_products():
    with _criterion(6, "every twisted power product on zmod:6 matches its "
                       "plain counterpart, in < 30 s"):
        start = time.perf_counter()
        ring = construct_ring("zmod:6")
        endo = build_endo(ring, "endo:id")
        # defaults cover lengths, exponents, and twist depths up to 3
        v = twisted_power_product_equivalence(ring, endo)
        assert v.status == HOLDS
        assert "219660 twisted products" in v.certificate
        assert time.perf_counter() - start < 30.0


def test_criterion_7_twisted_two_variable_model():
    with _criterion(7, "squaring twist on the two-variable model: series "
                       "side certified on both sides"):
        ring = construct_ring("xyq:gf:2:1:N=8")
        endo = build_endo(ring, "endo:xsq")     # raises unless it validates
        assert is_rigid(endo).holds
        assert preserves_nonunits(endo).holds
        x, y = ring.x_v(1), ring.y_v(1)
        assert x != ring.zero_v and y != ring.zero_v
        assert ring.k_mul(x, y) == ring.zero_v  # not a domain
        xc = TruncSeries.constant(ring, endo, x, 8)
        t = TruncSeries.monomial(ring, endo, 1, ring.one_v, 8)
        assert t * xc != xc * t                 # the twist acts
        v = archimedean_falsifier(ring, endo, depth=4, budget=10_000, seed=0)
        assert (v.status, v.theorem_tags) == (HOLDS_BY_THEOREM,
                                              ("Theorem 4.4",))
        v = archimedean_falsifier(ring, endo, depth=4, budget=10_000, seed=0,
                                  side="left")
        assert (v.status, v.theorem_tags) == (HOLDS_BY_THEOREM,
                                              ("Theorem 4.5",))
        rep = classify(ring, endo)
        series = {p["side"]: p for p in rep.predictions
                  if (p["model"], p["property"]) ==
                  ("series", "reduced-archimedean")}
        assert series["right"]["predicted"] == "yes"
        assert series["right"]["theorem_tag"] == "Theorem 4.4"
        assert series["left"]["predicted"] == "yes"
        assert series["left"]["theorem_tag"] == "Theorem 4.5"


def test_criterion_8_falsifier_negative_control():
    with _criterion(8, "falsifier exhibits the constant chain f = g = 2 "
                       "on zmod:6"):
        ring = construct_ring("zmod:6")
        endo = build_endo(ring, "endo:id")
        v = archimedean_falsifier(ring, endo, seed=0)   # depth 5 schedule
        assert v.status == FAILS
        f = parse_poly_text(v.witness["f"])
        g = parse_poly_text(v.witness["g"])
        for poly in (f, g):
            assert poly.coeffs[0] == ring.v_of_text("2")
            assert all(c == ring.zero_v for c in poly.coeffs[1:])
        assert len(v.witness["h"]) == 5
        for n, ht in enumerate(v.witness["h"], start=1):
            h = parse_poly_text(ht)
            power = g
            for _ in range(n - 1):
                power = power * g
            assert h * power == f


def test_criterion_9_quotient_gluing():
    with _criterion(9, "quotient gluing on zmod:6 along the ideals (2) "
                       "and (3)"):
        out = quotient_intersection_check(construct_ring("zmod:6"),
                                          ("2",), ("3",))
        assert out["pair"] == {"ideal1": ["0", "2", "4"],
                               "ideal2": ["0", "3"],
                               "intersection": ["0"]}
        assert out["reduced_glue"].status == HOLDS
        assert out["incomparable_not_domain"].status == HOLDS
        assert out["radical_archimedean_glue"].status == HYPOTHESIS_NOT_MET


def test_criterion_10_induction_audit():
    with _criterion(10, "audit derives the vanishing constant on zmod:8 "
                        "and halts on the surviving constant of zmod:6"):
        z8 = construct_ring("zmod:8")
        e8 = build_endo(z8, "endo:id")
        c8 = lambda t: TruncSeries.constant(z8, e8, z8.v_of_text(t), 16)
        g = c8("2")
        for hs in (["0", "0", "0"], ["4", "2", "1"]):
            v = induction_audit(c8("0"), g, [c8(t) for t in hs], 3)
            assert v.witness["derived"] == {"coefficient": "constant-term",
                                            "value": "0"}
            assert v.witness["stages"][1]["stabilized"] == ["0"]
        z6 = construct_ring("zmod:6")
        e6 = build_endo(z6, "endo:id")
        c6 = lambda t: TruncSeries.constant(z6, e6, z6.v_of_text(t), 8)
        v = induction_audit(c6("2"), c6("2"), [c6(t) for t in "121"], 3)
        assert v.status == HYPOTHESIS_NOT_MET
        assert v.witness["halt"] == {"stage": "constant-term",
                                     "coefficient": "2",
                                     "stabilized": ["0", "2", "4"]}


def test_criterion_11_cli_determinism(seed42_matrix):
    with _criterion(11, "run --entry all --suite all --seed 42 in a fresh "
                        "process is byte-identical to this one"):
        args = [sys.executable, "-m", "skewarch.cli", "run",
                "--entry", "all", "--suite", "all", "--seed", "42"]
        run = subprocess.run(args, capture_output=True, text=True)
        assert run.returncode == 0
        assert run.stdout == seed42_matrix.json
        assert _digest(run.stdout) == GOLDEN_JSON
        assert run.stdout.endswith("\n")
        doc = json.loads(run.stdout)
        assert len(doc["reports"]) == 11 * 18
