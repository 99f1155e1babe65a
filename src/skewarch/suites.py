"""Suite runners: one report per (registry entry, suite id).

Each runner evaluates its statement on the entry's (ring, twist) pair
and returns a Verdict.  "fails" is reserved for exact violations of a
statement whose hypotheses were met; expected failures of an unmet
hypothesis are reported as hypothesis-not-met with a demonstration, so
the exit-code rule stays: a "fails" report contradicts the predictions
unless the falsify suite produced it on an entry with no positive
prediction.
"""

from .endos import is_rigid, preserves_nonunits
from .prng import derive_rng
from .props import (
    FAILS,
    HOLDS,
    HOLDS_BY_THEOREM,
    HYPOTHESIS_NOT_MET,
    INCONCLUSIVE,
    TAG_ARCH_CONSEQUENCES,
    TAG_COMPATIBLE,
    TAG_CROSSED_SERIES,
    TAG_POLY_LEFT,
    TAG_POLY_NILPOTENT,
    TAG_POLY_RADICAL,
    TAG_POLY_RIGHT,
    TAG_PRODUCT_COLLAPSE,
    TAG_QUOTIENT_GLUE,
    TAG_REGULAR_DIVISION,
    TAG_SERIES_LEFT,
    TAG_SERIES_REDUCED,
    TAG_SERIES_RIGHT,
    TAG_SERIES_UNTWISTED,
    TAG_SUBRING_DESCENT,
    TAG_TWISTED_MODEL,
    Verdict,
    archimedean_consequence_suite,
    archimedean_falsifier,
    classify,
    derived_archimedean,
    first_incomparable_principal_pair,
    geometric_termination_check,
    poly_radical_check,
    poly_ring_conditions,
    poly_zero_divisor_probe,
    quotient_intersection_check,
    random_poly,
    random_series,
    regular_ring_division_check,
    rigidity_decomposition_verdict,
    series_reduced_check,
    series_ring_conditions,
    subring_inheritance_check,
    twisted_power_product_equivalence,
    _unmet_parts,
)
from .registry import RunConfig
from .rings import is_domain, product_memo, scan_domain
from .skew import SkewPoly, TruncSeries, parse_poly_text

REPORT_FIELDS = ("entry", "suite", "status", "witness", "certificate",
                 "theorem_tags")


# ---------------------------------------------------------------------------
# shared helpers


def _law_failure(ring, law: str, values) -> Verdict:
    witness = {"law": law}
    for name, v in values:
        witness[name] = ring.text_of_v(v)
    return Verdict(FAILS, witness, "exact arithmetic law violated: %s" % law)


# ---------------------------------------------------------------------------
# arithmetic


def _suite_arithmetic(entry, ring, endo, config: RunConfig) -> Verdict:
    """Ring laws on the triples of a pool, then the twist law and text
    round-trips.  The pool is the support-2 scan domain: 10 draws from a
    truncated model's scope values, 12 from a finite ring of more than
    12 values, every value of a smaller one.  Each pair sum and pair
    product is tabled once, before the triples, and a triple reads four
    more products: (ab)c, a(bc), a(b+c) and (a+b)c.  Each distinct
    product is taken once, through a product memo local to this call,
    since draws, pair products and pair sums repeat."""
    rng = derive_rng(config.seed, "arith/%s" % entry.id)
    dom = scan_domain(ring, 2)
    pool = dom.values
    if not dom.exact:
        tri = [pool[rng.below(len(pool))] for _ in range(10)]
        basis = "scope-sampled"
    elif len(pool) > 12:
        tri = [pool[rng.below(len(pool))] for _ in range(12)]
        basis = "sampled"
    else:
        tri = pool
        basis = "exhaustive"
    add, mul = ring.k_add, product_memo(ring)
    sums = [[add(a, b) for b in tri] for a in tri]
    prods = [[mul(a, b) for b in tri] for a in tri]
    for i, a in enumerate(tri):
        for j, b in enumerate(tri):
            if sums[i][j] != sums[j][i]:
                return _law_failure(ring, "additive commutativity",
                                    [("a", a), ("b", b)])
            for k, c in enumerate(tri):
                if mul(prods[i][j], c) != mul(a, prods[j][k]):
                    return _law_failure(ring, "multiplicative associativity",
                                        [("a", a), ("b", b), ("c", c)])
                if mul(a, sums[j][k]) != add(prods[i][j], prods[i][k]):
                    return _law_failure(ring, "left distributivity",
                                        [("a", a), ("b", b), ("c", c)])
                if mul(sums[i][j], c) != add(prods[i][k], prods[j][k]):
                    return _law_failure(ring, "right distributivity",
                                        [("a", a), ("b", b), ("c", c)])
    x = SkewPoly.variable(ring, endo)
    for a in tri:
        lhs = x * SkewPoly.constant(ring, endo, a)
        rhs = SkewPoly(ring, endo, [ring.zero_v, endo.apply_v(a)])
        if lhs != rhs:
            return Verdict(FAILS,
                           {"law": "twist law", "a": ring.text_of_v(a),
                            "x*a": lhs.to_text(), "twist(a)*x": rhs.to_text()},
                           "x*a must equal twist(a)*x in the polynomial "
                           "model")
    for _ in range(8):
        p = random_poly(ring, endo, rng)
        if parse_poly_text(p.to_text()) != p:
            return Verdict(FAILS, {"law": "polynomial round-trip",
                                   "text": p.to_text()},
                           "parse(print(f)) must reproduce f")
        s = random_series(ring, endo, rng, config.precision)
        if parse_poly_text(s.to_text()) != s:
            return Verdict(FAILS, {"law": "series round-trip",
                                   "text": s.to_text()},
                           "parse(print(f)) must reproduce f")
    return Verdict(
        HOLDS, None,
        "ring laws on %d %s triples, twist law on %d constants, and 8 "
        "poly/series text round-trips all exact"
        % (len(tri) ** 3, basis, len(tri)))


# ---------------------------------------------------------------------------
# coefficient-ring statements


def _suite_lemma_2_3(entry, ring, endo, config: RunConfig) -> Verdict:
    if ring.truncated:
        arch = derived_archimedean(ring, "right")
        if arch.status != HOLDS_BY_THEOREM:
            return Verdict(INCONCLUSIVE, {"archimedean": arch.status},
                           "consequence scan needs an enumerable ring and "
                           "a settled chain condition")
        pool = scan_domain(ring).values
        nontrivial = [v for v in pool
                      if ring.k_mul(v, v) == v
                      and v not in (ring.zero_v, ring.one_v)]
        if nontrivial:
            return Verdict(
                FAILS, {"e": ring.text_of_v(nontrivial[0])},
                "derived chain condition contradicted by a nontrivial "
                "idempotent").tagged(TAG_ARCH_CONSEQUENCES)
        return Verdict(
            HOLDS_BY_THEOREM,
            {"idempotent_scan": "trivial only on %d scope values"
             % len(pool)},
            "chain condition derived structurally, so its consequences "
            "follow; idempotent spot scan agrees",
            arch.theorem_tags).tagged(TAG_ARCH_CONSEQUENCES)
    out = archimedean_consequence_suite(ring, "right")
    agg = out["aggregate"]
    return agg.tagged(TAG_ARCH_CONSEQUENCES)


def _suite_prop_2_2(entry, ring, endo, config: RunConfig) -> Verdict:
    # degenerate inclusion: the unital subring generated by nothing,
    # re-enumerated; descent and the unit condition must still check out
    v = subring_inheritance_check(ring, (), "right")
    return v.tagged(TAG_SUBRING_DESCENT)


def _suite_remark_2_4(entry, ring, endo, config: RunConfig) -> Verdict:
    out = regular_ring_division_check(ring, "right")
    agg = out["aggregate"]
    witness = {
        "semiprimitive_domain": {
            "status": out["semiprimitive_domain"].status,
            "witness": out["semiprimitive_domain"].witness},
        "regular_division": {
            "status": out["regular_division"].status,
            "witness": out["regular_division"].witness},
    }
    return Verdict(agg.status, witness, agg.certificate,
                   agg.theorem_tags).tagged(TAG_REGULAR_DIVISION)


# ---------------------------------------------------------------------------
# polynomial model


def _suite_prop_3_1(entry, ring, endo, config: RunConfig) -> Verdict:
    v = geometric_termination_check(ring, endo, samples=200,
                                    seed=config.seed,
                                    precision=config.precision)
    return v.tagged(TAG_POLY_NILPOTENT)


def _suite_cor_3_2(entry, ring, endo, config: RunConfig) -> Verdict:
    if not endo.is_identity:
        return Verdict(HYPOTHESIS_NOT_MET, {"unmet": ["identity twist"]},
                       "radical description covers the untwisted "
                       "polynomial model only").tagged(TAG_POLY_RADICAL)
    v = poly_radical_check(ring, "right", samples=min(2000, config.budget),
                           seed=config.seed)
    return v.tagged(TAG_POLY_RADICAL)


def _poly_side_suite(ring, endo, config: RunConfig, side: str) -> Verdict:
    tag = TAG_POLY_RIGHT if side == "right" else TAG_POLY_LEFT
    cond = poly_ring_conditions(ring, endo, side)
    statuses = {k: (p.get("status") or
                    ("holds" if p.get("holds") else "fails"))
                for k, p in cond["parts"].items()}
    if cond["satisfied"] is None:
        return Verdict(INCONCLUSIVE, {"conditions": statuses},
                       "coefficient conditions undecided at this "
                       "scale").tagged(tag)
    if cond["satisfied"]:
        probe = poly_zero_divisor_probe(ring, endo, side,
                                        samples=min(2000, config.budget),
                                        seed=config.seed)
        if probe is not None:
            return Verdict(
                FAILS, {"conditions": statuses, **probe},
                "conditions met yet the predicted domain model produced "
                "a zero-divisor pair").tagged(tag)
        return Verdict(
            HOLDS_BY_THEOREM, {"conditions": statuses},
            "coefficient conditions %s; %s zero-divisor probe found "
            "nothing in %d samples"
            % ("verified exactly" if cond["basis"] == "exact"
               else "verified at scope", side, min(2000, config.budget)),
            (tag,))
    unmet = _unmet_parts(cond)
    demo = None
    if ring.truncated:
        dom = is_domain(ring)
        if dom.witness is not None:
            demo = {k: SkewPoly.constant(ring, endo, e.v).to_text()
                    for k, e in zip(("f", "b"), dom.witness)}
    else:
        demo = poly_zero_divisor_probe(ring, endo, side,
                                       samples=min(2000, config.budget),
                                       seed=config.seed)
    return Verdict(
        HYPOTHESIS_NOT_MET,
        {"unmet": unmet, "demonstration": demo},
        "coefficient conditions unmet (%s)%s"
        % (", ".join(unmet),
           "; the probe exhibits the predicted zero-divisor pair"
           if demo else "; no sampled zero-divisor found"),
        (tag,))


def _suite_thm_3_3(entry, ring, endo, config: RunConfig) -> Verdict:
    return _poly_side_suite(ring, endo, config, "right")


def _suite_thm_3_4(entry, ring, endo, config: RunConfig) -> Verdict:
    return _poly_side_suite(ring, endo, config, "left")


# ---------------------------------------------------------------------------
# series model


def _suite_prop_4_1(entry, ring, endo, config: RunConfig) -> Verdict:
    v = series_reduced_check(ring, endo, precision=config.precision,
                             seed=config.seed)
    return v.tagged(TAG_SERIES_REDUCED)


def _suite_lemma_4_2(entry, ring, endo, config: RunConfig) -> Verdict:
    return rigidity_decomposition_verdict(endo).tagged(TAG_COMPATIBLE)


def _suite_lemma_4_3(entry, ring, endo, config: RunConfig) -> Verdict:
    v = twisted_power_product_equivalence(ring, endo, seed=config.seed)
    return v.tagged(TAG_PRODUCT_COLLAPSE)


def _series_side_suite(ring, endo, config: RunConfig, side: str,
                       tag: str) -> Verdict:
    fv = archimedean_falsifier(ring, endo, precision=config.precision,
                               depth=config.depth, budget=config.budget,
                               seed=config.seed, side=side)
    if fv.status == FAILS:
        # only a finite ring's exact test gives a chain, and it fails just
        # when is_archimedean does, so the conditions are unmet
        unmet = _unmet_parts(series_ring_conditions(ring, endo, side))
        return Verdict(
            HYPOTHESIS_NOT_MET,
            {"unmet": unmet, "demonstration": fv.witness},
            "coefficient conditions unmet (%s); the falsifier exhibits "
            "the predicted divisibility chain" % ", ".join(unmet),
            (tag,))
    return fv.tagged(tag)


def _suite_thm_4_4(entry, ring, endo, config: RunConfig) -> Verdict:
    return _series_side_suite(ring, endo, config, "right", TAG_SERIES_RIGHT)


def _suite_thm_4_5(entry, ring, endo, config: RunConfig) -> Verdict:
    return _series_side_suite(ring, endo, config, "left", TAG_SERIES_LEFT)


def _suite_cor_4_6(entry, ring, endo, config: RunConfig) -> Verdict:
    if not endo.is_identity:
        return Verdict(HYPOTHESIS_NOT_MET, {"unmet": ["identity twist"]},
                       "untwisted series statement does not apply to a "
                       "twisted entry").tagged(TAG_SERIES_UNTWISTED)
    sides = {}
    worst = None
    for side in ("right", "left"):
        v = _series_side_suite(ring, endo, config, side, TAG_SERIES_UNTWISTED)
        sides[side] = {"status": v.status, "witness": v.witness}
        if worst is None or _SEVERITY[v.status] > _SEVERITY[worst.status]:
            worst = v
    return Verdict(worst.status, {"sides": sides}, worst.certificate,
                   (TAG_SERIES_UNTWISTED,))


_SEVERITY = {HOLDS: 0, HOLDS_BY_THEOREM: 0, HYPOTHESIS_NOT_MET: 1,
             INCONCLUSIVE: 2, FAILS: 3}


def _suite_prop_4_7(entry, ring, endo, config: RunConfig) -> Verdict:
    pair = first_incomparable_principal_pair(ring)
    if pair is None:
        return Verdict(HYPOTHESIS_NOT_MET,
                       {"unmet": ["incomparable principal ideal pair"]},
                       "every pair of principal ideals is comparable, so "
                       "the gluing clauses have nothing to "
                       "separate").tagged(TAG_QUOTIENT_GLUE)
    out = quotient_intersection_check(ring, (pair[0].text,), (pair[1].text,))
    clauses = {}
    statuses = []
    for name in ("reduced_glue", "incomparable_not_domain",
                 "radical_archimedean_glue"):
        clauses[name] = {"status": out[name].status,
                         "witness": out[name].witness}
        statuses.append(out[name].status)
    if FAILS in statuses:
        status = FAILS
    elif HOLDS in statuses:
        status = HOLDS
    else:
        status = HYPOTHESIS_NOT_MET
    return Verdict(
        status,
        {"generators": [pair[0].text, pair[1].text], "pair": out["pair"],
         "clauses": clauses},
        "gluing clauses on the first incomparable principal pair: "
        + ", ".join("%s %s" % (n, c["status"])
                    for n, c in clauses.items()),
        (TAG_QUOTIENT_GLUE,))


# ---------------------------------------------------------------------------
# the two-variable worked example


def _suite_examples(entry, ring, endo, config: RunConfig) -> Verdict:
    if ring.kind != "xyq":
        return Verdict(HYPOTHESIS_NOT_MET,
                       {"unmet": ["two-variable model entry"]},
                       "worked example runs on the two-variable quotient "
                       "entries only").tagged(TAG_CROSSED_SERIES,
                                              TAG_TWISTED_MODEL)
    checks = {}
    xv, yv = ring.x_v(1), ring.y_v(1)
    prod = ring.k_mul(xv, yv)
    if prod != ring.zero_v:
        return Verdict(FAILS, {"x*y": ring.text_of_v(prod)},
                       "defining relation x*y = 0 violated")
    checks["not_domain"] = {"x": ring.text_of_v(xv), "y": ring.text_of_v(yv),
                            "x*y": "0"}
    rig = is_rigid(endo)
    pnu = preserves_nonunits(endo)
    checks["rigid"] = "yes" if rig.holds else "no"
    checks["preserves_nonunits"] = "yes" if pnu.holds else "no"
    if not (rig.holds and pnu.holds):
        return Verdict(FAILS, checks,
                       "example twist must be rigid and preserve nonunits")
    arch = derived_archimedean(ring, "right")
    checks["archimedean"] = arch.status
    if arch.status not in (HOLDS, HOLDS_BY_THEOREM):
        return Verdict(INCONCLUSIVE, checks,
                       "chain condition of the example model could not be "
                       "settled")
    if endo.is_identity:
        # untwisted variant: commutative, reduced, chain condition holds,
        # still not a domain
        rng = derive_rng(config.seed, "examples/%s" % entry.id)
        pool = scan_domain(ring, 2).values
        for _ in range(200):
            a = pool[rng.below(len(pool))]
            b = pool[rng.below(len(pool))]
            if ring.k_mul(a, b) != ring.k_mul(b, a):
                return Verdict(FAILS,
                               {"a": ring.text_of_v(a), "b": ring.text_of_v(b)},
                               "commutativity broken in the untwisted "
                               "example")
        checks["commutative"] = "yes (200 sampled scope pairs)"
        return Verdict(
            HOLDS_BY_THEOREM, checks,
            "commutative reduced model with x*y = 0: not a domain, yet "
            "the chain condition holds by structural derivation",
            arch.theorem_tags).tagged(TAG_CROSSED_SERIES)
    # twisted variant: the series variable does not commute with x
    N = config.precision
    t = TruncSeries.monomial(ring, endo, 1, ring.one_v, N)
    cx = TruncSeries.constant(ring, endo, xv, N)
    tx, xt = t * cx, cx * t
    if tx == xt:
        return Verdict(FAILS, {"t*x": tx.to_text(), "x*t": xt.to_text()},
                       "twisted series model unexpectedly commutes")
    checks["noncommutative_series"] = {"t*x": tx.to_text(),
                                       "x*t": xt.to_text()}
    fv = archimedean_falsifier(ring, endo, precision=config.precision,
                               depth=4, budget=config.budget,
                               seed=config.seed, side="right")
    # a truncated model's falsifier never returns fails
    checks["falsifier_depth_4"] = fv.status
    return Verdict(
        HOLDS_BY_THEOREM, checks,
        "rigid nonunit-preserving twist over the derived-Archimedean "
        "two-variable model; series model noncommutative with zero-divisor "
        "pair (x, y); falsifier found nothing at depth 4",
        (TAG_SERIES_RIGHT, TAG_SERIES_LEFT)).tagged(TAG_TWISTED_MODEL)


# ---------------------------------------------------------------------------
# classification and falsification drivers


def _suite_classify(entry, ring, endo, config: RunConfig) -> Verdict:
    rep = classify(ring, endo)
    basis = "exact" if rep.profile["reduced"]["exact"] else "scope-exact"
    return Verdict(HOLDS, rep.as_witness(),
                   "predictions derived from %s coefficient-level "
                   "predicates" % basis, tuple(rep.cited_tags()))


def _suite_falsify(entry, ring, endo, config: RunConfig) -> Verdict:
    fv = archimedean_falsifier(ring, endo, precision=config.precision,
                               depth=config.depth, budget=config.budget,
                               seed=config.seed, side="right")
    if fv.status == HOLDS_BY_THEOREM:
        left = series_ring_conditions(ring, endo, "left")
        if left["satisfied"]:
            fv = fv.tagged(left["tag"])
    return fv


_RUNNERS = {
    "arithmetic": _suite_arithmetic,
    "lemma-2-3": _suite_lemma_2_3,
    "prop-2-2": _suite_prop_2_2,
    "remark-2-4": _suite_remark_2_4,
    "prop-3-1": _suite_prop_3_1,
    "cor-3-2": _suite_cor_3_2,
    "thm-3-3": _suite_thm_3_3,
    "thm-3-4": _suite_thm_3_4,
    "prop-4-1": _suite_prop_4_1,
    "lemma-4-2": _suite_lemma_4_2,
    "lemma-4-3": _suite_lemma_4_3,
    "thm-4-4": _suite_thm_4_4,
    "thm-4-5": _suite_thm_4_5,
    "cor-4-6": _suite_cor_4_6,
    "prop-4-7": _suite_prop_4_7,
    "examples-4-8-9": _suite_examples,
    "classify": _suite_classify,
    "falsify": _suite_falsify,
}
SUITE_IDS = tuple(_RUNNERS)


# statements about rings whose values can be listed: suite id ->
# (statement, tag); on a truncated model their hypothesis is unmet
_FINITE_ONLY = {
    "prop-2-2": ("subring descent", TAG_SUBRING_DESCENT),
    "remark-2-4": ("regular/division dichotomy", TAG_REGULAR_DIVISION),
    "prop-4-7": ("quotient gluing", TAG_QUOTIENT_GLUE),
}


def run_one(entry, suite_id: str, config: RunConfig) -> dict:
    """Run one suite on one registry entry and shape the report."""
    if suite_id not in _RUNNERS:
        raise KeyError("unknown suite id: %r" % suite_id)
    ring, endo = entry.build()
    if ring.truncated and suite_id in _FINITE_ONLY:
        statement, tag = _FINITE_ONLY[suite_id]
        v = Verdict(HYPOTHESIS_NOT_MET, {"unmet": ["finite coefficient ring"]},
                    "%s needs an enumerable coefficient ring" % statement,
                    (tag,))
    else:
        v = _RUNNERS[suite_id](entry, ring, endo, config)
    return {
        "entry": entry.id,
        "suite": suite_id,
        "status": v.status,
        "witness": v.witness,
        "certificate": v.certificate,
        "theorem_tags": list(v.theorem_tags),
    }


def report_contradicts_predictions(entry, report: dict) -> bool:
    """A report of `entry` blocks exit code 0 when it fails where the
    statements predict success.  Every suite reserves "fails" for that
    situation except falsify, whose chains are expected on entries with
    no positive series prediction."""
    if report["status"] != FAILS:
        return False
    if report["suite"] != "falsify":
        return True
    # classify's right-side series prediction
    return series_ring_conditions(*entry.build(), "right")["satisfied"] is True
