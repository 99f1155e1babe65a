"""Decision procedures for the Archimedean divisibility property.

A ring is right Archimedean when for every nonunit a the intersection of
the descending multiple sets R*a^n over all n >= 1 is {0}; "left" swaps
the multiplication to a^n*R.  On finite rings the chain R*a >= R*a^2 >=
... stabilizes, the stabilized set equals the intersection, and it is
{0} exactly when a is nilpotent, so nilpotence tests decide the property
exactly.  Truncated models get
structural derivations instead of scans.

Every check returns a Verdict whose status draws from the report
vocabulary: "holds", "fails", "hypothesis-not-met",
"inconclusive-at-scale" and "holds-by-theorem".  Witnesses are JSON-ready
dicts of canonical element texts; certificates say how the verdict was
reached.  Theorem tags are the fixed catalog strings used in reports.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from .endos import (Endo, _twist_on, build_endo, is_compatible, is_injective,
                    is_rigid, preserves_nonunits, rigid_decomposition_check)
from .prng import SplitMix64, derive_rng
from .rings import (Element, SubsetHandle, construct_ring, idempotents,
                    is_domain, is_reduced, jacobson_radical, memo,
                    nilpotent_values, nonunits, principal_power_chain,
                    quotient_by_ideal, require_budget, scan_domain,
                    subring_generated, units, zero_divisors, zero_keys)
from .skew import (SkewPoly, TruncSeries, _inverse_of_one_plus, _need_side,
                   lowest_certificate, nilpotency_probe, parse_poly_text,
                   solve_right_divisibility, top_certificate)

HOLDS = "holds"
FAILS = "fails"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
INCONCLUSIVE = "inconclusive-at-scale"
HOLDS_BY_THEOREM = "holds-by-theorem"

STATUSES = (HOLDS, FAILS, HYPOTHESIS_NOT_MET, INCONCLUSIVE, HOLDS_BY_THEOREM)

POWER_PRODUCT_BUDGET = 400_000   # exact scan takes the first bounds that fit
# (product length, exponent, twist depth) bounds of the exact scan, largest first
POWER_PRODUCT_BOUNDS = ((3, 3, 3), (3, 3, 2), (3, 3, 1), (3, 2, 1), (3, 1, 1),
                        (2, 1, 1), (1, 1, 1))
POWER_PRODUCT_SAMPLES = 200      # guarded tuples on a truncated model

# fixed tag catalog; these exact strings appear in reports
TAG_ARCH_DOMAIN_MODELS = "Theorem 1.2"
TAG_ARCH_CONSEQUENCES = "Lemma 2.3"
TAG_SUBRING_DESCENT = "Proposition 2.2"
TAG_REGULAR_DIVISION = "Remark 2.4"
TAG_POLY_NILPOTENT = "Proposition 3.1"
TAG_POLY_RADICAL = "Corollary 3.2"
TAG_POLY_RIGHT = "Theorem 3.3"
TAG_POLY_LEFT = "Theorem 3.4"
TAG_POLY_UNTWISTED = "Corollary 3.5"
TAG_SERIES_REDUCED = "Proposition 4.1"
TAG_COMPATIBLE = "Lemma 4.2"
TAG_PRODUCT_COLLAPSE = "Lemma 4.3"
TAG_SERIES_RIGHT = "Theorem 4.4"
TAG_SERIES_LEFT = "Theorem 4.5"
TAG_SERIES_UNTWISTED = "Corollary 4.6"
TAG_QUOTIENT_GLUE = "Proposition 4.7"
TAG_CROSSED_SERIES = "Example 4.8"
TAG_TWISTED_MODEL = "Example 4.9"

@dataclass(frozen=True)
class Verdict:
    status: str
    witness: Optional[dict]
    certificate: str
    theorem_tags: tuple = ()

    def tagged(self, *tags) -> "Verdict":
        merged = tuple(dict.fromkeys(self.theorem_tags + tags))
        return Verdict(self.status, self.witness, self.certificate, merged)


# ---------------------------------------------------------------------------
# random operands; coefficients come from the support <= 2 scan domain

_POLY_DEGREE = 6        # the default degree bound of a drawn polynomial


def _draw_terms(rng, pool, zero, top, max_terms: int) -> dict:
    """One seeded draw of 1..max_terms writes, each a pool value at a
    degree in 0..top, as {degree: nonzero value}.  Each write draws the
    pool index before the degree; a later write to a degree wins, and a
    zero write erases the term."""
    below, size, span, terms = rng.below, len(pool), top + 1, {}
    for _ in range(below(max_terms) + 1):
        value = pool[below(size)]
        degree = below(span)
        if value == zero:
            terms.pop(degree, None)
        else:
            terms[degree] = value
    return terms


def _dense(terms: dict, zero, length: int) -> list:
    coeffs = [zero] * length
    for degree, value in terms.items():
        coeffs[degree] = value
    return coeffs


def random_poly(ring, endo: Endo, rng: SplitMix64,
                max_degree: int = _POLY_DEGREE, max_terms: int = 4) -> SkewPoly:
    terms = _draw_terms(rng, scan_domain(ring, 2).values, ring.zero_v,
                        max_degree, max_terms)
    return SkewPoly(ring, endo, _dense(terms, ring.zero_v, max_degree + 1))


def random_series(ring, endo: Endo, rng: SplitMix64, precision: int,
                  max_support: Optional[int] = None) -> TruncSeries:
    top = precision if max_support is None else min(max_support, precision)
    terms = _draw_terms(rng, scan_domain(ring, 2).values, ring.zero_v, top, 4)
    return TruncSeries(ring, endo, precision,
                       _dense(terms, ring.zero_v, precision + 1))


# ---------------------------------------------------------------------------
# the Archimedean property itself


@memo
def is_archimedean(ring, side: str = "right") -> Verdict:
    """Exact on a finite ring.  A chain R*a^n (or a^n*R) stops at its
    first repeat and stays put from there, and R*a^m = {0} forces
    a^m = 1*a^m = 0, so a nonunit's chain reaches {0} iff a is nilpotent.
    The ring is commutative, so R*a^n = a^n*R and both sides are one
    property: the search is side-free and runs once per ring, and only
    the HOLDS certificate names the side.  A truncated model has no
    values to list, so nonunits raises NonEnumerableError, whose message
    points to derived_archimedean."""
    _need_side(side)
    failure = _archimedean_failure(ring)
    if failure is not None:
        return failure
    return Verdict(
        HOLDS, None,
        "all %d nonunit power chains stabilize at {0} (exhaustive "
        "%s-side scan)" % (len(nonunits(ring)), side))


@memo
def _archimedean_failure(ring) -> Optional[Verdict]:
    """The FAILS verdict of the first non-nilpotent nonunit, whose chain
    alone is built, for the witness; None when every nonunit is
    nilpotent."""
    nu, nil = nonunits(ring), nilpotent_values(ring)
    a = next((a for a in nu if a.v not in nil), None)
    if a is None:
        return None
    chain, stab = principal_power_chain(ring, a)
    return Verdict(
        FAILS,
        {"a": a.text, "stabilized": stab.texts()},
        "principal power chain of %s stabilizes at {%s} after %d "
        "steps without reaching {0} (exact)"
        % (a.text, ",".join(stab.texts()), len(chain)))


@memo
def derived_archimedean(ring, side: str = "right") -> Verdict:
    """Archimedean status for any model ring: chain scans when finite,
    structural derivations for the truncated models."""
    _need_side(side)
    if not ring.truncated:
        return is_archimedean(ring, side)
    if ring.kind == "xyq":
        return _two_variable_quotient_archimedean(ring, side)
    return _series_model_archimedean(ring, side)


def _series_model_archimedean(ring, side: str) -> Verdict:
    """Untwisted truncated series model: inherits reduced + Archimedean
    from its coefficient ring, and inherits every chain failure because
    constant chains embed."""
    base = ring.base
    arch = is_archimedean(base, side)
    red = is_reduced(base)
    if arch.status == FAILS:
        av = base.v_of_text(arch.witness["a"])
        model_a = (av,) + (base.zero_v,) * ring.precision
        return Verdict(
            FAILS,
            {"a": ring.text_of_v(model_a),
             "base_stabilized": arch.witness["stabilized"]},
            "the coefficient chain witness %s lifts to a constant series "
            "whose multiple sets restrict to the coefficient chain, so the "
            "stabilized set {%s} survives in the model"
            % (arch.witness["a"], ",".join(arch.witness["stabilized"])))
    if red.reduced:
        return Verdict(
            HOLDS_BY_THEOREM, None,
            "coefficient ring is reduced and %s-Archimedean by exact scans, "
            "and the untwisted series model inherits both" % side,
            (TAG_SERIES_UNTWISTED,))
    return Verdict(
        INCONCLUSIVE,
        {"square_zero": red.witness.text if red.witness else None},
        "coefficient ring is %s-Archimedean but not reduced (square-zero "
        "witness %s); no characterization applies to the series model"
        % (side, red.witness.text if red.witness else "?"))


def _two_variable_quotient_archimedean(ring, side: str) -> Verdict:
    """The crossed-variable quotient model: glue the property from the two
    one-variable collapses.

    Route: both variable ideals lie in the radical, intersect only at
    zero, and each collapse is the one-variable series model over the
    coefficient field, which is reduced and Archimedean.  A ring with two
    such ideals inherits the property from the pair of quotients.  The
    ring is commutative, so the scans behind the route are one-sided
    only in name: `_two_variable_scans` runs them once per ring, and the
    side picks the wording of the steps."""
    F = ring.field
    steps = []

    f_arch = is_archimedean(F, side)
    f_red = is_reduced(F)
    if f_arch.status != HOLDS or not f_red.reduced:
        return Verdict(INCONCLUSIVE, None,
                       "coefficient field failed its exact scans")
    steps.append("coefficient field %s is reduced and %s-Archimedean "
                 "(exact scans)" % (F.spec_text, side))

    scans = _two_variable_scans(ring)
    if isinstance(scans, Verdict):
        return scans
    scope_checked, products_checked, radical_checked = scans
    steps.append("the x-multiples and y-multiples intersect only at 0 "
                 "(block representation; %d scope values checked)"
                 % scope_checked)
    steps.append("collapsing either variable block is a multiplicative "
                 "projection onto the one-variable series model "
                 "(%d products verified exactly)" % products_checked)

    # the collapse target tser(F, N) inherits both properties from F's
    # two scans, which the first step required
    steps.append("each collapse target is reduced and %s-Archimedean "
                 "(untwisted series over a field)" % side)
    steps.append("both variable ideals lie in the radical: 1 - r*m keeps "
                 "constant term 1 and the unit criterion reads only the "
                 "constant term (%d products checked)" % radical_checked)

    steps.append("conclusion: the model is %s-Archimedean, glued from the "
                 "two collapses along radical ideals meeting at 0" % side)
    return Verdict(
        HOLDS_BY_THEOREM, {"derivation": steps},
        "derived from the quotient-gluing characterization over the "
        "radical ideal pair (x-multiples, y-multiples)",
        (TAG_QUOTIENT_GLUE, TAG_SERIES_UNTWISTED))


@memo
def _two_variable_scans(ring):
    """The three scans of the two-variable derivation, in its order:
    the variable blocks meet only at 0 on every scope value; on a
    stride-48 sample of them plus 1, x, y and x+y, each product is the
    pair of one-variable series products; and 1 - r*m is a unit for
    each sampled r and m in {x, y, x^2, y^2}.  None of them reads a
    side, so both sides' derivations share one run.  Returns the FAILS
    verdict of the first scan that breaks, else the three counts
    (scope values, products verified, radical products).

    The block-collapse scan compares the model's product with the two
    series products it is made of.  Inside a suite cell both sides read
    the cell's series_products() memo, so the comparison is true by
    construction there, as the pair representation already makes it
    (the model's product is defined half by half); its count stays in
    the report text.  A call outside every cell takes each product
    afresh on each side."""
    ser = ring.series
    pool = scan_domain(ring).values
    for v in pool:
        # an x-multiple has y-series 0, a y-multiple x-series 0
        if v[1] == ser.zero_v and v[0] == ser.zero_v and v != ring.zero_v:
            return Verdict(FAILS, {"common": ring.text_of_v(v)},
                           "a nonzero value sits in both variable blocks")

    stride = max(1, len(pool) // 48)
    sample = pool[::stride]
    gens = [ring.one_v, ring.x_v(1), ring.y_v(1),
            ring.k_add(ring.x_v(1), ring.y_v(1))]
    checked = 0
    for u in sample + gens:
        for v in sample + gens:
            w = ring.k_mul(u, v)
            if (w[0] != ser.k_mul(u[0], v[0])
                    or w[1] != ser.k_mul(u[1], v[1])):
                return Verdict(FAILS,
                               {"u": ring.text_of_v(u), "v": ring.text_of_v(v)},
                               "block collapse failed to respect a product")
            checked += 1

    radical_checked = 0
    for m in (ring.x_v(1), ring.y_v(1), ring.x_v(min(2, ring.precision)),
              ring.y_v(min(2, ring.precision))):
        for r in sample:
            if not ring.has_inverse_v(ring.k_sub(ring.one_v, ring.k_mul(r, m))):
                return Verdict(FAILS,
                               {"r": ring.text_of_v(r), "m": ring.text_of_v(m)},
                               "a variable multiple escaped the radical")
            radical_checked += 1
    return len(pool), checked, radical_checked


# ---------------------------------------------------------------------------
# consequences of the property


def sandwich_unit_clause(ring, side: str = "right") -> Verdict:
    """If a = b*a*c with a != 0 then the side factor (c on the right, b on
    the left) must be a unit.  Violations need a nonunit side factor, so
    the scan ranges that factor over nonunits only.  The ring is
    commutative, so (w*a)*other = (other*a)*w and one product serves both
    sides; the side names the witness keys and the wording."""
    _need_side(side)
    vals = ring.values()
    z = ring.zero_v
    nus = nonunits(ring).vals
    triples = len(nus) * (len(vals) - 1) * len(vals)
    require_budget(ring, "sandwich clause", triples)
    for w in nus:
        for a in vals:
            if a == z:
                continue
            for other in vals:
                if ring.k_mul(ring.k_mul(w, a), other) == a:
                    b, c = (other, w) if side == "right" else (w, other)
                    return Verdict(
                        FAILS,
                        {"a": ring.text_of_v(a), "b": ring.text_of_v(b),
                         "c": ring.text_of_v(c),
                         "nonunit_factor": "c" if side == "right" else "b"},
                        "a = b*a*c with a != 0 and a nonunit %s factor"
                        % ("trailing" if side == "right" else "leading"))
    return Verdict(
        HOLDS, None,
        "no nonzero a equals b*a*c with a nonunit %s factor (exhaustive: "
        "%d triples)" % ("trailing" if side == "right" else "leading", triples))


def zero_divisors_in_radical_clause(ring, side: str = "right") -> Verdict:
    """Side zero-divisors must sit inside the radical.  Both sides have
    the same zero-divisors; the side names them in the wording."""
    zd = zero_divisors(ring)
    rad = jacobson_radical(ring).members
    for v in zd.vals:
        if v not in rad:
            return Verdict(FAILS, {"a": ring.text_of_v(v)},
                           "%s-side zero-divisor %s lies outside the radical"
                           % (side, ring.text_of_v(v)))
    return Verdict(HOLDS, None,
                   "all %d %s-side zero-divisors lie in the radical "
                   "(exhaustive)" % (len(zd), side))


def trivial_idempotents_clause(ring) -> Verdict:
    """Only 0 and 1 may square to themselves."""
    for v in idempotents(ring).vals:
        if v not in (ring.zero_v, ring.one_v):
            return Verdict(FAILS, {"e": ring.text_of_v(v)},
                           "idempotent %s outside {0, 1}" % ring.text_of_v(v))
    return Verdict(HOLDS, None, "idempotent scan found only 0 and 1 "
                   "(exhaustive)")


def dedekind_finite_clause(ring) -> Verdict:
    """One-sided inverses must be two-sided."""
    vals = ring.values()
    require_budget(ring, "Dedekind-finite pair scan", len(vals) ** 2)
    one = ring.one_v
    for a in vals:
        for b in vals:
            if ring.k_mul(a, b) == one and ring.k_mul(b, a) != one:
                return Verdict(FAILS,
                               {"a": ring.text_of_v(a), "b": ring.text_of_v(b)},
                               "a*b = 1 but b*a != 1")
    return Verdict(HOLDS, None,
                   "every one-sided inverse is two-sided (exhaustive: "
                   "%d pairs)" % (len(vals) * len(vals)))


def archimedean_consequence_suite(ring, side: str = "right") -> dict:
    """The four structural consequences of being side-Archimedean, plus an
    aggregate verdict.  A non-Archimedean ring yields hypothesis-not-met,
    and any failed clause is then recorded as contrapositive confirmation."""
    arch = is_archimedean(ring, side)
    clauses = {
        "sandwich_units": sandwich_unit_clause(ring, side),
        "zero_divisors_in_radical": zero_divisors_in_radical_clause(ring, side),
        "trivial_idempotents": trivial_idempotents_clause(ring),
        "dedekind_finite": dedekind_finite_clause(ring),
    }
    statuses = {name: verdict.status for name, verdict in clauses.items()}
    if arch.status == HOLDS:
        bad = [(n, v) for n, v in clauses.items() if v.status != HOLDS]
        if bad:
            name, v = bad[0]
            aggregate = Verdict(
                FAILS, {"clause": name, "clauses": statuses, **(v.witness or {})},
                "clause %s fails although the ring is %s-Archimedean: %s"
                % (name, side, v.certificate))
        else:
            aggregate = Verdict(
                HOLDS, {"clauses": statuses},
                "ring is %s-Archimedean and all four consequences verified "
                "exhaustively" % side)
    else:
        contrapositive = [
            {"clause": name, "witness": v.witness}
            for name, v in clauses.items() if v.status == FAILS
        ]
        note = ""
        if contrapositive:
            note = ("; failed clauses %s reconfirm the hypothesis cannot hold"
                    % ",".join(c["clause"] for c in contrapositive))
        aggregate = Verdict(
            HYPOTHESIS_NOT_MET,
            {"archimedean_witness": arch.witness, "clauses": statuses,
             "contrapositive": contrapositive},
            "ring is not %s-Archimedean (%s)%s" % (side, arch.certificate, note))
    out = {"archimedean": arch}
    out.update(clauses)
    out["aggregate"] = aggregate
    return out


# ---------------------------------------------------------------------------
# subrings


def subring_inheritance_check(ambient, gens=(), side: str = "right") -> Verdict:
    """A subring containing the ambient unit structure inherits the
    property: if every ambient unit inside the subring stays invertible
    there and the ambient ring is side-Archimedean, so is the subring.
    In a finite ring the unit condition always holds (a unit's inverse is
    one of its powers), so only the chain scans can decide."""
    _need_side(side)
    sub, _, cond = subring_generated(ambient, gens)
    info = {
        "subring_card": sub.card,
        "generators": list(map(sub.text_of_v, sub.gens)),
        "ambient_units_in_subring": cond["ambient_units_in_subring"],
    }
    ambient_arch = is_archimedean(ambient, side)
    sub_arch = is_archimedean(sub, side)
    if ambient_arch.status != HOLDS:
        return Verdict(
            HYPOTHESIS_NOT_MET,
            {**info, "ambient_witness": ambient_arch.witness,
             "subring_status": sub_arch.status},
            "ambient ring is not %s-Archimedean (%s); nothing descends"
            % (side, ambient_arch.certificate))
    if sub_arch.status == HOLDS:
        return Verdict(
            HOLDS, info,
            "unit condition verified (%d shared units), ambient ring "
            "%s-Archimedean, and the subring inherits the property "
            "(exhaustive scans on both)" % (len(cond["ambient_units_in_subring"]),
                                            side))
    return Verdict(
        FAILS, {**info, "subring_witness": sub_arch.witness},
        "descent broke: ambient ring %s-Archimedean with the unit condition "
        "satisfied, yet the subring chain of %s refuses to vanish"
        % (side, sub_arch.witness["a"]))


# ---------------------------------------------------------------------------
# regular rings


@memo
def von_neumann_regular(ring):
    """Every a must factor as a*x*a, which is a^2*x in a commutative
    ring: one product per candidate x.  Returns (bool, counterexample)."""
    vals, mul = ring.values(), ring.k_mul
    require_budget(ring, "regularity pair scan", len(vals) ** 2)
    for a in vals:
        sq = mul(a, a)
        if not any(mul(sq, x) == a for x in vals):
            return False, Element(ring, a)
    return True, None


def is_division_ring(ring) -> bool:
    return len(units(ring)) == len(ring.values()) - 1


def regular_ring_division_check(ring, side: str = "right") -> dict:
    """Two consequences tied to radical triviality: a semiprimitive
    side-Archimedean ring is a domain, and a von Neumann regular ring is
    side-Archimedean exactly when it is a division ring."""
    _need_side(side)
    arch = is_archimedean(ring, side)
    rad = jacobson_radical(ring)
    semiprimitive = rad.members == {ring.zero_v}

    if not semiprimitive or arch.status != HOLDS:
        unmet = []
        if not semiprimitive:
            unmet.append("radical is {%s}, not {0}" % ",".join(rad.texts()))
        if arch.status != HOLDS:
            unmet.append("not %s-Archimedean" % side)
        part_domain = Verdict(
            HYPOTHESIS_NOT_MET,
            {"radical": rad.texts(), "archimedean": arch.status},
            "; ".join(unmet))
    else:
        dom = is_domain(ring)
        if dom.domain:
            part_domain = Verdict(
                HOLDS, None,
                "semiprimitive and %s-Archimedean, and the exhaustive pair "
                "scan confirms a domain" % side)
        else:
            a, b = dom.witness
            part_domain = Verdict(
                FAILS, {"a": a.text, "b": b.text},
                "semiprimitive %s-Archimedean ring with the zero product "
                "%s*%s" % (side, a.text, b.text))

    vnr, bad = von_neumann_regular(ring)
    if not vnr:
        part_regular = Verdict(
            HYPOTHESIS_NOT_MET, {"a": bad.text},
            "not von Neumann regular: %s has no inner inverse" % bad.text)
    else:
        division = is_division_ring(ring)
        agrees = (arch.status == HOLDS) == division
        if agrees:
            part_regular = Verdict(
                HOLDS,
                {"archimedean": arch.status,
                 "division": "yes" if division else "no"},
                "regular ring: %s-Archimedean (%s) coincides with division "
                "ring (%s)" % (side, arch.status,
                               "yes" if division else "no"))
        else:
            part_regular = Verdict(
                FAILS,
                {"archimedean": arch.status,
                 "division": "yes" if division else "no"},
                "regular ring where %s-Archimedean and division disagree" % side)

    parts = {"semiprimitive_domain": part_domain,
             "regular_division": part_regular}
    if any(v.status == FAILS for v in parts.values()):
        worst = next(v for v in parts.values() if v.status == FAILS)
        aggregate = Verdict(FAILS, worst.witness, worst.certificate)
    elif any(v.status == HOLDS for v in parts.values()):
        held = [n for n, v in parts.items() if v.status == HOLDS]
        aggregate = Verdict(
            HOLDS, {"verified": held,
                    "statuses": {n: v.status for n, v in parts.items()}},
            "verified: %s" % ", ".join(held))
    else:
        aggregate = Verdict(
            HYPOTHESIS_NOT_MET,
            {"statuses": {n: v.status for n, v in parts.items()}},
            "neither statement's hypotheses are met here")
    parts["aggregate"] = aggregate
    return parts


CENSUS_FIELD_SPECS = ("gf:2:1", "gf:3:1", "gf:2:2", "gf:5:1")
CENSUS_MAX_FACTORS = 3


def archimedean_field_census():
    """Products of small fields are regular, so the property must single
    out the division rings: exactly the one-factor products.  Returns one
    row per unordered product.  The rings are commutative, so the right
    and left property are one, and the rows hold for both sides."""
    rows = []
    for n in range(1, CENSUS_MAX_FACTORS + 1):
        for combo in itertools.combinations_with_replacement(
                CENSUS_FIELD_SPECS, n):
            spec_text = combo[0] if n == 1 else "prod(%s)" % ",".join(combo)
            ring = construct_ring(spec_text)
            vnr, _ = von_neumann_regular(ring)
            rows.append({
                "spec": spec_text,
                "factors": n,
                "cardinality": ring.card,
                "regular": vnr,
                "division": is_division_ring(ring),
                "archimedean": is_archimedean(ring).status == HOLDS,
            })
    return rows


# ---------------------------------------------------------------------------
# characterization profiles for the two model constructions


def _endo_part(v) -> dict:
    return {"holds": v.holds, "witness": v.witness, "exact": v.exact}


def _model_conditions(ring, endo: Endo, side: str, tags, model_parts) -> dict:
    """The shape both characterizations share: side-Archimedean
    coefficients, the model's own parts, and on the right a
    nonunit-preserving twist; undecided when the chain condition is.
    tags are the (untwisted, right, left) theorem tags."""
    arch = derived_archimedean(ring, side)
    parts = {"archimedean": {"status": arch.status, "witness": arch.witness},
             **model_parts}
    if side == "right":
        parts["preserves_nonunits"] = _endo_part(preserves_nonunits(endo))
    if arch.status == INCONCLUSIVE:
        satisfied = None
    else:
        satisfied = (arch.status in (HOLDS, HOLDS_BY_THEOREM)
                     and all(p["holds"] for name, p in parts.items()
                             if name != "archimedean"))
    untwisted, right, left = tags
    tag = untwisted if endo.is_identity else right if side == "right" else left
    return {"parts": parts, "satisfied": satisfied, "tag": tag,
            "basis": scan_domain(ring).basis}


def poly_ring_conditions(ring, endo: Endo, side: str = "right") -> dict:
    """When the twisted polynomial model is a reduced side-Archimedean
    ring: side-Archimedean domain coefficients, injective twist, and on
    the right additionally a nonunit-preserving twist."""
    _need_side(side)
    dom = is_domain(ring)
    return _model_conditions(
        ring, endo, side, (TAG_POLY_UNTWISTED, TAG_POLY_RIGHT, TAG_POLY_LEFT),
        {"domain": {"holds": dom.domain,
                    "witness": None if dom.witness is None else
                    {"a": dom.witness[0].text, "b": dom.witness[1].text},
                    "exact": dom.exact},
         "injective": _endo_part(is_injective(endo))})


def series_ring_conditions(ring, endo: Endo, side: str = "right") -> dict:
    """When the truncated series model is a reduced side-Archimedean ring:
    side-Archimedean coefficients, rigid twist, and on the right a
    nonunit-preserving twist."""
    _need_side(side)
    return _model_conditions(
        ring, endo, side,
        (TAG_SERIES_UNTWISTED, TAG_SERIES_RIGHT, TAG_SERIES_LEFT),
        {"rigid": _endo_part(is_rigid(endo))})


# ---------------------------------------------------------------------------
# polynomial-model checks


def geometric_termination_check(ring, endo: Endo, samples: int, seed: int,
                                precision: int = 16) -> Verdict:
    """1 + f*u inverts as the alternating geometric series; the expansion
    truncates to a polynomial exactly when f*u is nilpotent, and then the
    truncation index equals the nilpotency index.  The check depends on
    f alone, and a failing f raises at its first draw, so each distinct
    f is checked once and a repeat counts its first draw's termination.

    The agreement of the termination index with the nilpotency index
    holds by construction: the expansion stops at the first power of f*u
    that is zero or has order > precision, so every power below its
    index is nonzero, and one that stops at (f*u)^k of order > precision
    without a zero power can have exact zero powers only above k."""
    rng = derive_rng(seed, "geometric/%s/%s" % (ring.spec_text, endo.stream_text))
    samples = scan_domain(ring).sample_count(samples)
    terminated = 0
    seen = {}       # f.coeffs -> whether the expansion of f terminated
    for _ in range(samples):
        f = random_poly(ring, endo, rng, max_terms=3)
        if f.is_zero:
            continue
        if f.coeffs not in seen:
            # raises if the identity fails
            seen[f.coeffs] = _inverse_of_one_plus(f.shift(1), precision).terminated
        terminated += seen[f.coeffs]
    return Verdict(
        HOLDS, None,
        "two-sided inverse identity and termination/nilpotency agreement "
        "verified on %d sampled polynomials (%d with polynomial inverse)"
        % (samples, terminated))


def _no_certificate_vanishes(endo, pool, top: int, budget: int,
                             diagonal: bool = False) -> bool:
    """Whether every certificate x*alpha^o(y) a draw can produce is
    nonzero: x and y nonzero pool values, o in 0..top, and y = x on the
    diagonal (a lowest term squared).  Each distinct product is made once
    with the ring's own k_mul, and only when at most budget of them are
    needed, so the table never makes more products than the draws'
    certificates would.  False, over budget or at the first zero, says
    only that the draws must run.  No structural predicate answers here:
    is_domain decides a field without a product, and a probe that
    trusted it would not check the prediction it is there to check."""
    zero, apply, span = endo.ring.zero_v, endo.power_apply_v, range(top + 1)
    xs = [v for v in pool if v != zero]
    if diagonal:
        if len(xs) * len(span) > budget:
            return False
        pairs = {(x, apply(o, x)) for x in xs for o in span}
    else:
        images = {apply(o, y) for y in xs for o in span}
        if len(xs) * len(images) > budget:
            return False
        pairs = itertools.product(xs, images)
    mul = endo.ring.k_mul
    return all(mul(x, z) != zero for x, z in pairs)


@memo
def poly_zero_divisor_probe(ring, endo: Endo, side: str = "right",
                            samples: int = 2000, seed: int = 0) -> Optional[dict]:
    """Sampled hunt for a nonzero pair with b*f = 0 (side="right") or
    f*b = 0 ("left") in the polynomial model.  A draw whose product has
    a nonzero top coefficient is skipped unbuilt, so when the table of
    every top coefficient a draw can produce has no zero, no draw can
    succeed and the probe returns None without drawing: the loop's own
    outcome.  Kept per ring, twist, side, samples and seed, so the
    untwisted right probe of cor-3-2 and thm-3-3 is drawn once.  The
    returned dict is shared: callers build new dicts from it and never
    change it."""
    _need_side(side)
    samples = scan_domain(ring).sample_count(samples)
    pool, zero = scan_domain(ring, 2).values, ring.zero_v
    if _no_certificate_vanishes(endo, pool, _POLY_DEGREE, samples):
        return None
    rng = derive_rng(seed, "polyzd/%s/%s/%s" % (ring.spec_text, endo.stream_text, side))
    for _ in range(samples):
        # the draws of random_poly(ring, endo, rng, max_terms=3)
        f = _draw_terms(rng, pool, zero, _POLY_DEGREE, 3)
        b = _draw_terms(rng, pool, zero, _POLY_DEGREE, 3)
        if not (f and b):
            continue
        left, right = (b, f) if side == "right" else (f, b)
        # the top coefficient of the product.  min in place of max would
        # read its lowest one, x_low*alpha^o(y_low), which also shows the
        # product nonzero: either way a draw is skipped only when its
        # product is nonzero, so the returned pair is the same
        if top_certificate(endo, max(left.items()), max(right.items())) != zero:
            continue
        f, b = (SkewPoly(ring, endo, _dense(t, zero, _POLY_DEGREE + 1))
                for t in (f, b))
        if (b * f if side == "right" else f * b).is_zero:
            return {"f": f.to_text(), "b": b.to_text()}
    return None


def _poly_unit_exact(p: SkewPoly) -> bool:
    """Unit test for untwisted polynomials over a finite commutative ring:
    unit constant term and nilpotent higher coefficients."""
    ring = p.ring
    if p.is_zero:
        return False
    if not ring.has_inverse_v(p.coeffs[0]):
        return False
    nil = nilpotent_values(ring)
    return all(c in nil for c in p.coeffs[1:])


def _unmet_parts(cond: dict):
    out = []
    for name, part in cond["parts"].items():
        ok = part.get("holds") if "holds" in part else (
            part.get("status") in (HOLDS, HOLDS_BY_THEOREM))
        if not ok:
            out.append(name)
    return out


def poly_radical_check(ring, side: str = "right", samples: int = 2000,
                       seed: int = 0) -> Verdict:
    """Untwisted polynomial model: when it is side-Archimedean, its side
    zero-divisors, its nilpotents and {0} coincide inside the radical."""
    _need_side(side)
    if ring.truncated:
        return Verdict(INCONCLUSIVE, None,
                       "untwisted polynomial check needs a finite "
                       "coefficient ring")
    endo = build_endo(ring, "endo:id")
    cond = poly_ring_conditions(ring, endo, side)
    witness = poly_zero_divisor_probe(ring, endo, side, samples, seed)
    if cond["satisfied"]:
        if witness is not None:
            return Verdict(FAILS, witness,
                           "predicted domain model produced a zero-divisor "
                           "pair")
        red = is_reduced(ring)
        if not red.reduced:
            return Verdict(FAILS, {"a": red.witness.text},
                           "predicted reduced model over a non-reduced "
                           "coefficient ring")
        return Verdict(
            HOLDS, None,
            "model is a %s-Archimedean domain by the characterization: "
            "sampled zero-divisors, nilpotents and the radical probe all "
            "come up empty (%d samples)" % (side, samples))
    # contrapositive corroboration at probe scale
    demo = None
    if witness is not None:
        f = parse_poly_text(witness["f"])
        # identity twist, commutative coefficients: f is nilpotent iff
        # every coefficient is
        nilpotent = nilpotent_values(ring).issuperset(f.coeffs)
        # radical membership by the exact unit criterion: 1 - f*g must be
        # a unit for every g; probe a few shapes
        one = SkewPoly.constant(ring, endo, ring.one_v)
        probes = [one, SkewPoly.variable(ring, endo),
                  parse_poly_text(witness["b"])]
        in_radical = all(_poly_unit_exact(one - f * g) for g in probes)
        demo = {**witness,
                "nilpotent": "yes" if nilpotent else "no",
                "in_radical": "yes" if in_radical else "no"}
    return Verdict(
        HYPOTHESIS_NOT_MET,
        {"unmet": _unmet_parts(cond), "probe": demo},
        "model not certified %s-Archimedean (%s unmet)%s"
        % (side, ", ".join(_unmet_parts(cond)),
           "; probe shows zero-divisor %s with nilpotent=%s, radical "
           "membership %s"
           % (demo["f"], demo["nilpotent"], demo["in_radical"]) if demo else
           "; no sampled zero-divisor found"))


# ---------------------------------------------------------------------------
# series-model checks


def _square_in_base_window(s) -> bool:
    # widening the series precision cannot recover coefficients the base
    # window already truncated; only trust a vanished square when every
    # twisted coefficient product fits the base degree bounds
    ring, endo = s.ring, s.endo
    if ring.kind != "xyq":
        return True
    supp = [(i, c) for i, c in enumerate(s.coeffs) if c != ring.zero_v]
    for i, ci in supp:
        dxi, dyi = ring.block_degrees(ci)
        for j, cj in supp:
            dxj, dyj = ring.block_degrees(cj)
            tw = endo.degree_bound(i, dxj, dyj)
            if tw[0] + dxi > ring.precision or tw[1] + dyi > ring.precision:
                return False
    return True


def series_reduced_check(ring, endo: Endo, precision: int = 16,
                         seed: int = 0) -> Verdict:
    """The truncated series model is reduced exactly when the twist is
    rigid.  A rigidity failure yields an explicit square-zero monomial;
    under a rigid twist a sampled square scan stays clean.  The scan
    skips unbuilt a draw whose lowest term (o, a) squares to a nonzero
    a*alpha^o(a), so when the table of those products over the pool and
    o in 0..precision // 2 has no zero, it draws nothing and reports its
    sample count with no artifact, as every draw would."""
    rig = is_rigid(endo)
    if not rig.holds:
        av = ring.v_of_text(rig.witness["a"])
        s = TruncSeries.monomial(ring, endo, 1, av, precision)
        sq = s * s
        probe = nilpotency_probe(s, bound=2)
        if not (sq.is_zero and probe.zero_power_found):
            return Verdict(
                FAILS, {"a": rig.witness["a"]},
                "rigidity witness failed to square the monomial to zero")
        return Verdict(
            HOLDS,
            {"a": rig.witness["a"], "square_zero_series": s.to_text(),
             "genuine": "yes" if probe.genuine else "scope"},
            "twist is not rigid (a = %s), and (a*u)^2 = a*twist(a)*u^2 = 0 "
            "gives a nonzero square-zero series, matching the equivalence"
            % rig.witness["a"])
    rng = derive_rng(seed, "series-square/%s/%s" % (ring.spec_text, endo.stream_text))
    samples = scan_domain(ring).sample_count(2000)
    pool, zero = scan_domain(ring, 2).values, ring.zero_v
    artifacts = 0
    clean = _no_certificate_vanishes(endo, pool, precision // 2, samples, diagonal=True)
    for _ in range(0 if clean else samples):
        # the draws of random_series(ring, endo, rng, precision,
        # max_support=precision // 2)
        terms = _draw_terms(rng, pool, zero, precision // 2, 4)
        if not terms:
            continue
        # the support cap keeps 2*order within the precision
        low = min(terms.items())
        if lowest_certificate(endo, low, low, precision) != zero:
            continue
        s = TruncSeries(ring, endo, precision, _dense(terms, zero, precision + 1))
        if (s * s).is_zero:
            probe = nilpotency_probe(s, bound=2)
            if (probe.zero_power_found and probe.genuine
                    and _square_in_base_window(s)):
                return Verdict(
                    FAILS, {"s": s.to_text()},
                    "rigid twist yet a genuine nonzero square-zero series "
                    "appeared")
            artifacts += 1
    note = ("" if artifacts == 0
            else "; %d truncation artifacts discounted" % artifacts)
    return Verdict(
        HOLDS, None,
        "twist is rigid (%s) and %d sampled squares stayed nonzero in the "
        "half-support window%s" % ("exact" if rig.exact else "scope-exact",
                                   samples, note))


def rigidity_decomposition_verdict(endo: Endo) -> Verdict:
    """Rigid must coincide with compatible-and-reduced."""
    d = rigid_decomposition_check(endo)
    summary = {
        "rigid": "yes" if d["rigid"].holds else "no",
        "compatible": "yes" if d["compatible"].holds else "no",
        "reduced": "yes" if d["reduced"].reduced else "no",
    }
    if d["biconditional_holds"]:
        return Verdict(
            HOLDS, summary,
            "rigid=%s agrees with compatible=%s and reduced=%s (%s)"
            % (summary["rigid"], summary["compatible"], summary["reduced"],
               "exact" if d["exact"] else "scope-exact"))
    witness = {**summary}
    for name in ("rigid", "compatible"):
        if d[name].witness:
            witness[name + "_witness"] = d[name].witness
    if d["reduced"].witness is not None:
        witness["square_zero"] = d["reduced"].witness.text
    return Verdict(FAILS, witness,
                   "rigid=%s disagrees with compatible=%s and reduced=%s"
                   % (summary["rigid"], summary["compatible"],
                      summary["reduced"]))


def twisted_power_product_equivalence(ring, endo: Endo, seed: int = 0) -> Verdict:
    """Under a rigid twist, a product of twisted powers
    twist^t1(a1^k1) * ... * twist^tn(an^kn) with every exponent >= 1
    vanishes exactly when the plain product a1 * ... * an of the bases
    vanishes.  Exponent zero would insert a unity factor and break the
    equivalence, so exponents start at 1.  The coefficient ring is
    commutative, so the bases' arrangement does not change the plain
    product, which is taken once, in tuple order.  A finite ring takes
    the first of POWER_PRODUCT_BOUNDS whose scan fits
    POWER_PRODUCT_BUDGET, and _power_product_scan scans it."""
    rig = is_rigid(endo)
    if ring.truncated:
        return _scope_power_product_equivalence(ring, endo, rig, seed)

    vals = [v for v in ring.values() if v != ring.zero_v]
    n_max, k_max, t_max = next(
        (b for b in POWER_PRODUCT_BOUNDS
         if (len(vals) * b[1] * (b[2] + 1)) ** b[0] <= POWER_PRODUCT_BUDGET),
        POWER_PRODUCT_BOUNDS[-1])
    bounds = "lengths <= %d, exponents <= %d, twist depths <= %d" % (
        n_max, k_max, t_max)

    dom = is_domain(ring)
    if dom.domain and is_injective(endo).holds:
        return Verdict(
            HOLDS, None,
            "domain with injective twist: every factor of a nonzero-base "
            "product is nonzero, so both sides vanish only on zero bases "
            "(exact shortcut)", ())

    violation, checked = _power_product_scan(ring, endo, vals, n_max, k_max, t_max)
    if rig.holds:
        if violation:
            return Verdict(FAILS, violation,
                           "rigid twist yet the equivalence broke (%s)"
                           % bounds)
        return Verdict(
            HOLDS, None,
            "equivalence verified exhaustively over nonzero bases (%s; "
            "%d twisted products)" % (bounds, checked))
    if violation:
        return Verdict(
            HYPOTHESIS_NOT_MET, {"demonstration": violation,
                                 "rigid_witness": rig.witness},
            "twist is not rigid (%s); the scan exhibits how the "
            "equivalence then breaks (%s)" % (rig.note, bounds))
    return Verdict(
        HYPOTHESIS_NOT_MET, {"rigid_witness": rig.witness},
        "twist is not rigid (%s); no break found within %s" % (rig.note,
                                                               bounds))


def _power_product_scan(ring, endo: Endo, vals, n_max, k_max, t_max):
    """The ordered scan of a finite ring: every base tuple of length
    <= n_max over vals, and for each every (exponent, twist) choice.
    Returns (the first violation or None, the products checked).

    Every zero test goes through rings.zero_keys, whose keys multiply
    exactly.  For each base tuple the scan first builds the set of
    reachable twisted products, from left to right over each position's
    distinct table entries.  When every reachable product agrees with
    the plain product's zero-ness, all k_max^n * (t_max+1)^n choices
    count as checked at once; otherwise the tuple's choices are replayed
    in order, each fold stopping at its first zero product, which
    absorbs, so the first witness and the count are those of the plain
    ordered scan."""
    key, times, zero = zero_keys(ring)
    # twisted-power table of keys: tbl[a][k-1][t] = key(twist^t(a^k))
    tbl = {}
    for a in vals:
        pows = [ring.k_pow(a, k) for k in range(1, k_max + 1)]
        tbl[a] = [[key(endo.power_apply_v(t, pw)) for t in range(t_max + 1)]
                  for pw in pows]
    entries = {a: {e for row in per_k for e in row} for a, per_k in tbl.items()}
    base_key = {a: key(a) for a in vals}
    checked = 0
    for n in range(1, n_max + 1):
        choices = list(itertools.product(
            itertools.product(range(k_max), repeat=n),
            itertools.product(range(t_max + 1), repeat=n)))
        for tup in itertools.product(vals, repeat=n):
            acc = base_key[tup[0]]
            for x in tup[1:]:
                acc = times(acc, base_key[x])
            rhs_zero = acc == zero
            reach = entries[tup[0]]
            for a in tup[1:]:
                reach = {times(r, e) for r in reach for e in entries[a]}
            if all((r == zero) == rhs_zero for r in reach):
                checked += len(choices)
                continue
            rows = [tbl[a] for a in tup]
            for ks, ts in choices:
                acc = rows[0][ks[0]][ts[0]]
                for i in range(1, n):
                    if acc == zero:
                        break
                    acc = times(acc, rows[i][ks[i]][ts[i]])
                checked += 1
                if (acc == zero) != rhs_zero:
                    return {
                        "bases": [ring.text_of_v(a) for a in tup],
                        "exponents": [k + 1 for k in ks],
                        "twists": list(ts),
                        "twisted_product": "zero" if acc == zero else "nonzero",
                        "plain_product": "zero" if rhs_zero else "nonzero",
                    }, checked
    return None, checked


def _scope_power_product_equivalence(ring, endo: Endo, rig, seed: int) -> Verdict:
    """Sampled scope version for truncated coefficient rings.  Products
    are replayed in the widened model, and a tuple only counts when its
    twisted degree bound fits the widened window, so every zero test is
    exact rather than a truncation artifact.  Draws repeat bases, powers
    and partial products: each twisted power is built once per (pool
    index, exponent, twist depth), and inside a suite cell the series
    products under every model product are read from the cell's
    series_products() memo after their first time."""
    dom = scan_domain(ring, 2)
    wide = dom.ring
    wendo = _twist_on(endo, dom)
    rng = derive_rng(seed, "powerprod/%s/%s" % (ring.spec_text, endo.stream_text))
    pool, lifts = zip(*((v, lv) for v, lv in zip(dom.values, dom.lifted)
                        if v != ring.zero_v))
    degs = [ring.block_degrees(v) for v in pool]
    zero = wide.zero_v
    powers = {}
    checked = 0
    draws = 0
    while checked < POWER_PRODUCT_SAMPLES and draws < POWER_PRODUCT_SAMPLES * 20:
        draws += 1
        n = rng.below(2) + 2
        picks = [rng.below(len(pool)) for _ in range(n)]
        ks = [rng.below(2) + 1 for _ in range(n)]
        ts = [rng.below(3) for _ in range(n)]
        bx = by = 0
        for i, k, t in zip(picks, ks, ts):
            dx, dy = degs[i]
            bound = endo.degree_bound(t, k * dx, k * dy)
            bx += bound[0]
            by += bound[1]
        if bx > wide.precision or by > wide.precision:
            continue
        keys = list(zip(picks, ks, ts))
        for i, k, t in keys:
            if (i, k, t) not in powers:
                powers[i, k, t] = wendo.power_apply_v(t, wide.k_pow(lifts[i], k))
        acc = functools.reduce(wide.k_mul, [powers[key] for key in keys])
        plain_zero = functools.reduce(wide.k_mul, [lifts[i] for i in picks]) == zero
        checked += 1
        if (acc == zero) != plain_zero:
            witness = {"bases": [ring.text_of_v(pool[i]) for i in picks],
                       "exponents": ks, "twists": ts}
            if rig.holds:
                return Verdict(FAILS, witness,
                               "rigid twist yet the equivalence broke in "
                               "the widened model within the degree bound")
            return Verdict(HYPOTHESIS_NOT_MET,
                           {"demonstration": witness},
                           "twist not rigid; equivalence break exhibited")
    if rig.holds:
        return Verdict(
            HOLDS, None,
            "equivalence verified on %d sampled scope tuples whose twisted "
            "degree bounds fit the widened window, so the zero tests are "
            "exact (twist rigid at scope)" % checked)
    return Verdict(
        HYPOTHESIS_NOT_MET, {"rigid_witness": rig.witness},
        "twist is not rigid at scope; no break found in %d guarded samples"
        % checked)


# ---------------------------------------------------------------------------
# the falsifier


def archimedean_falsifier(ring, endo: Endo, precision: int = 16,
                          depth: int = 5, budget: int = 10_000, seed: int = 0,
                          side: str = "right") -> Verdict:
    """Search the truncated series model for a nonunit g and a nonzero f
    divisible by every g^n up to the requested depth, with the
    divisibility certified to persist beyond the window.

    On a finite ring the exact side test decides.  If some nonunit a is
    not nilpotent, its power chain stabilizes at a nonzero set, so the
    constants g = a and f = (first nonzero member of that set) give the
    witness, replayed for n = 1..depth.  Otherwise every nonunit is
    nilpotent.  Twists are endomorphisms, so no twist power of a nonunit
    is a unit and no monomial survives a constant divisor.  A series
    whose constant term is a nonzero nonunit fails the coefficient-chain
    filter at degree 0.  The verdict then comes from the characterization
    of Theorems 4.4 and 4.5.  Truncated models verify the order escape of
    scheduled divisor candidates instead."""
    _need_side(side)
    if depth < 1:
        raise ValueError("falsifier depth must be >= 1, got %d" % depth)
    if precision < 0:
        raise ValueError("falsifier precision must be >= 0, got %d"
                         % precision)
    if ring.truncated:
        return _scope_falsifier(ring, endo, precision, depth, budget, seed,
                                side)
    arch = is_archimedean(ring, side)
    if arch.status == FAILS:
        a_text, stab = arch.witness["a"], arch.witness["stabilized"]
        f0 = next(v for v in map(ring.v_of_text, stab) if v != ring.zero_v)
        g = TruncSeries.constant(ring, endo, ring.v_of_text(a_text), precision)
        f = TruncSeries.constant(ring, endo, f0, precision)
        h_texts = []
        for n in range(1, depth + 1):
            res = solve_right_divisibility(f, g, n, side=side,
                                           node_limit=max(budget, 1000))
            if res.status != "found":
                raise RuntimeError("constant-stage divisibility witness "
                                   "not found at n = %d" % n)
            h_texts.append(res.h.to_text())
        return Verdict(
            FAILS,
            {"f": f.to_text(), "g": g.to_text(), "h": h_texts,
             "stabilized": stab},
            "constant-stage witness: the %s chain of %s stabilizes at "
            "{%s} (exact), so %s stays divisible by every power; "
            "witnesses replayed for n = 1..%d"
            % (side, a_text, ",".join(stab), ring.text_of_v(f0), depth))

    # Every nonunit is nilpotent, so every candidate is rejected and the
    # counts follow from the ring alone, with no draws: one per nonunit
    # chain; on the right, one per nonzero nonunit and twist power
    # m <= min(3, precision); then one per random divisor, whose constant
    # term is zero, a unit or a nonunit whose chain dies, until the
    # budget or 200 candidates run out.
    count = len(nonunits(ring))
    examined = count
    notes = ["constant stage: all %d nonunit chains reach {0} (exact)"
             % count]
    if side == "right":
        examined += (count - 1) * min(3, precision)
        notes.append("monomial stage: no twist power of a nonunit divisor "
                     "constant becomes a unit")
    else:
        notes.append("monomial stage: powers of a nonunit stay nonunit, so "
                     "no left-side monomial survives a constant divisor")
    tried = max(0, min(200, budget - examined))
    notes.append("random stage: %d filtered candidates, none survived"
                 % tried)
    return _falsifier_conclusion(ring, endo, side, notes, examined + tried)


def _scope_falsifier(ring, endo: Endo, precision: int, depth: int,
                     budget: int, seed: int, side: str) -> Verdict:
    """Truncated coefficient rings: every nonunit constant has inner order
    >= 1, so divisor powers gain inner order and, degree by degree, escape
    any window.  Verify the escape on the scheduled candidates the budget
    leaves: no g^depth has a degree `_order_escape_degree` finds.  A
    candidate with a zero constant term needs no check and no power."""
    rng = derive_rng(seed, "falsify/%s/%s/%s" % (ring.spec_text, endo.stream_text,
                                                 side))
    pool = scan_domain(ring, 2).values
    nonunit_pool = [v for v in pool
                    if v != ring.zero_v and not ring.has_inverse_v(v)]
    examined = 0
    notes = []
    for v in nonunit_pool:
        if ring.inner_order(v) is None or ring.inner_order(v) < 1:
            return Verdict(
                INCONCLUSIVE, {"candidate": ring.text_of_v(v)},
                "a nonunit constant of inner order zero defeats the "
                "order-escape argument at this scale")
    notes.append("all %d scope nonunits have inner order >= 1, so constant "
                 "divisor powers escape every window" % len(nonunit_pool))

    # scheduled candidates: constants, monomials, then random series; for
    # each, verify the per-degree escape ord((g^depth)_m) >= depth - m
    candidates = []
    for v in nonunit_pool[:8]:
        candidates.append(TruncSeries.constant(ring, endo, v, precision))
    for v in nonunit_pool[:4]:
        for k in range(1, min(3, precision) + 1):
            candidates.append(TruncSeries.monomial(ring, endo, k, v,
                                                   precision))
    while len(candidates) < 16 and examined < budget:
        s = random_series(ring, endo, rng, precision, max_support=4)
        if not s.is_unit() and not s.is_zero:
            candidates.append(s)
        examined += 1
    verified = candidates[:max(0, budget - examined)]
    for g in verified:
        # a zero constant term kills the low degrees of g^depth outright
        if g.coeffs[0] == ring.zero_v:
            continue
        G = g ** depth
        m = _order_escape_degree(ring, G.coeffs, depth)
        if m is not None:
            return Verdict(
                INCONCLUSIVE,
                {"g": g.to_text(), "degree": m},
                "a divisor power coefficient kept inner order %d < %d; "
                "the escape argument needs closer analysis here"
                % (ring.inner_order(G.coeffs[m]), depth - m))
    notes.append("escape verified on %d scheduled divisor candidates: every "
                 "coefficient of g^%d has inner order >= %d - degree"
                 % (len(verified), depth, depth))
    return _falsifier_conclusion(ring, endo, side, notes, examined + len(verified))


def _falsifier_conclusion(ring, endo: Endo, side: str, notes, examined):
    cond = series_ring_conditions(ring, endo, side)
    summary = "; ".join(notes) + " (%d candidates examined)" % examined
    if cond["satisfied"]:
        return Verdict(
            HOLDS_BY_THEOREM, None,
            "no counterexample: %s; the characterization certifies the "
            "reduced %s-Archimedean series model (%s basis)"
            % (summary, side, cond["basis"]),
            (cond["tag"],))
    return Verdict(
        INCONCLUSIVE, {"unmet": _unmet_parts(cond)},
        "no counterexample within budget: %s; but the characterization "
        "leaves the model unsettled (%s unmet)"
        % (summary, ", ".join(_unmet_parts(cond))))


# ---------------------------------------------------------------------------
# the induction audit


def induction_audit(f: TruncSeries, g: TruncSeries, h_list, depth: int,
                    side: str = "right") -> Verdict:
    """Replay divisibility witnesses f = h_n * g^n (or the left mirror)
    and audit the degreewise vanishing argument at degrees 0..min(precision,
    depth - 1): chain certificates force each audited coefficient of f to
    zero, the rigid twist collapses the helper products, and the audit
    halts at the first stage whose hypothesis is unavailable, with the
    stage records so far and the halting stage.  Truncated coefficient
    rings have no chains; a divisor constant of positive inner order
    bounds each coefficient's inner order instead (`_order_escape_degree`)."""
    _need_side(side)
    if depth < 1:
        raise ValueError("audit depth must be >= 1")
    if len(h_list) < depth:
        raise ValueError("audit to depth %d needs %d divisibility "
                         "witnesses, got %d" % (depth, depth, len(h_list)))
    ring, endo = f.ring, f.endo
    for s in (g, *h_list):
        f._check(s)

    g0 = g.coeffs[0]
    if ring.has_inverse_v(g0):
        return Verdict(
            HYPOTHESIS_NOT_MET, {"g": g.to_text()},
            "the divisor's constant term %s is a unit, so everything is "
            "divisible by every power and the audit is vacuous"
            % ring.text_of_v(g0))

    # g, g*g, (g*g)*g, ...: one product per power
    powers = itertools.accumulate([g] * depth, lambda a, b: a * b)
    for n, (h, gn) in enumerate(zip(h_list, powers), 1):
        if (h * gn if side == "right" else gn * h) != f:
            raise ValueError("divisibility witness %d fails to replay" % n)
    stages = [{"stage": "replay",
               "detail": ("f = h_n*g^n verified for n = 1..%d" if side ==
                          "right" else "f = g^n*h_n verified for n = 1..%d")
               % depth}]
    top = min(f.precision, depth - 1)
    text = ring.text_of_v

    if ring.truncated:
        min_ord = ring.inner_order(g0)
        if min_ord is not None and min_ord < 1:
            return Verdict(
                INCONCLUSIVE, {"stages": stages},
                "the divisor constant has inner order zero; no escape "
                "certificate at this scale")
        m = _order_escape_degree(ring, f.coeffs, depth)
        if m is not None:
            return Verdict(
                FAILS, {"stages": stages, "degree": m,
                        "coefficient": text(f.coeffs[m])},
                "coefficient at degree %d has inner order %s < %d, "
                "contradicting divisibility by g^%d"
                % (m, ring.inner_order(f.coeffs[m]), depth - m, depth))
        stages.append({"stage": "order-escape",
                       "detail": "every audited coefficient has inner order "
                       ">= %d - degree (degrees %s)"
                       % (depth, ",".join(map(str, range(top + 1))))})
        return Verdict(
            HOLDS, {"stages": stages},
            "order-escape audit at scope: the divisor constant has inner "
            "order >= 1, so deeper divisibility pushes every audited "
            "coefficient out of the window (twist rigid: %s)"
            % ("yes" if is_rigid(endo).holds else "no"))

    rig = is_rigid(endo)

    def eq_text(lhs_v, hn_v, base_v, n):
        if side == "right":
            return "%s = %s*%s^%d" % (text(lhs_v), text(hn_v), text(base_v), n)
        return "%s = %s^%d*%s" % (text(lhs_v), text(base_v), n, text(hn_v))

    def halt(status, stop, certificate, **extra):
        return Verdict(status, {"stages": stages, "halt": stop, **extra},
                       certificate)

    chains = {}         # the power chain of each distinct divisor constant
    for m in range(top + 1):
        cm = endo.power_apply_v(m, g0) if side == "right" else g0
        fm = f.coeffs[m]
        stage = "constant-term" if m == 0 else "degree-%d" % m
        if ring.has_inverse_v(cm):
            stages.append({"stage": stage,
                           "blocked": "twist power %d sends the divisor "
                           "constant to the unit %s" % (m, text(cm))})
            return halt(
                HYPOTHESIS_NOT_MET, {"stage": stage, "unit_image": text(cm)},
                "audit halts at the %s stage: the twist fails to preserve "
                "nonunits there, so the multiple sets of %s are everything "
                "and certify nothing" % (stage, text(cm)))
        # h_n for n = m+1..depth, read at degree m
        helpers = [(n, h.coeffs[m]) for n, h in
                   enumerate(h_list[m:depth], m + 1)]
        eqs = []
        for n, hn in helpers:
            eq = eq_text(fm, hn, cm, n)
            # the ring is commutative: h_n*c^n = c^n*h_n
            if ring.k_mul(hn, ring.k_pow(cm, n)) != fm:
                stages.append({"stage": stage, "equations": eqs,
                               "mismatch": eq})
                return halt(
                    FAILS, {"stage": stage, "equation": eq},
                    "the reduced %s equation fails numerically although "
                    "every lower degree vanished and the twist is rigid"
                    % stage)
            eqs.append(eq)
        if cm not in chains:
            chains[cm] = principal_power_chain(ring, Element(ring, cm))
        chain, stab = chains[cm]
        record = {"stage": stage, "equations": eqs,
                  "stabilized": stab.texts(), "chain_length": len(chain)}
        stages.append(record)
        if stab.members != {ring.zero_v}:
            record["conclusion"] = "no chain certificate"
            return halt(
                HYPOTHESIS_NOT_MET,
                {"stage": stage, "coefficient": text(fm),
                 "stabilized": stab.texts()},
                "audit halts at the %s stage: the %s chain of %s "
                "stabilizes at {%s} without reaching {0}%s"
                % (stage, side, text(cm), ",".join(stab.texts()),
                   ", and the coefficient %s survives" % text(fm)
                   if fm != ring.zero_v
                   else "; the coefficient happens to vanish anyway"))
        if len(chain) > depth:
            return halt(
                INCONCLUSIVE, {"stage": stage, "chain_length": len(chain)},
                "the chain of %s needs %d steps to stabilize but the audit "
                "only has witnesses up to depth %d"
                % (text(cm), len(chain), depth))
        if fm != ring.zero_v:
            return halt(
                FAILS, {"stage": stage, "coefficient": text(fm)},
                "the chain certificate forces the %s coefficient to zero "
                "yet it is %s" % (stage, text(fm)))
        record["conclusion"] = ("coefficient forced to 0: it lies in every "
                                "multiple set down to the stabilized {0}")
        # collapse the helper products for later degrees
        if not rig.holds:
            stages.append({"stage": "product-collapse",
                           "blocked": "twist is not rigid",
                           "witness": rig.witness})
            return halt(
                HYPOTHESIS_NOT_MET,
                {"stage": "product-collapse", "derived": {stage: "0"}},
                "the %s coefficient is forced to 0 by the chain "
                "certificate, but the audit halts at the product-collapse "
                "stage: the twist is not rigid (%s)" % (stage, rig.note),
                derived={"coefficient": stage, "value": "0"})
        for n, hn in helpers:
            if ring.k_mul(hn, g0) != ring.zero_v:
                return halt(
                    FAILS, {"stage": "product-collapse", "n": n,
                            "h": text(hn)},
                    "rigid collapse failed: the helper constant %s times "
                    "the divisor constant is nonzero" % text(hn))
        stages.append({"stage": "product-collapse-%d" % m,
                       "equations": [eq_text(ring.zero_v, hn, g0, 1)
                                     for _, hn in helpers]})

    return Verdict(
        HOLDS, {"stages": stages},
        "audited coefficients 0..%d all vanish under exact chain "
        "certificates with a rigid twist (%s); divisibility witnesses "
        "replayed to depth %d" % (top, rig.note, depth))


def _order_escape_degree(ring, coeffs, depth: int) -> Optional[int]:
    """The first degree m < depth whose coefficient is nonzero with inner
    order below depth - m, or None.  A multiple of g^depth has none when
    g's constant term, a factor of each degree-m term at least depth - m
    times, has inner order >= 1."""
    return next((m for m, c in enumerate(coeffs[:depth])
                 if c != ring.zero_v and ring.inner_order(c) < depth - m),
                None)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassificationReport:
    ring_spec: str
    endo_text: str
    profile: dict
    predictions: tuple

    def as_witness(self) -> dict:
        return {"ring": self.ring_spec, "twist": self.endo_text,
                "profile": self.profile,
                "predictions": list(self.predictions)}

    def cited_tags(self):
        return sorted({p["theorem_tag"] for p in self.predictions})


def classify(ring, endo: Endo) -> ClassificationReport:
    """Profile the coefficient ring and twist, then predict the status of
    the polynomial and series models on both sides.  Each prediction cites
    exactly one catalog tag."""
    red = is_reduced(ring)
    dom = is_domain(ring)
    profile = {
        "cardinality": ring.card if red.exact else "truncated-model",
        "reduced": {"holds": red.reduced, "exact": red.exact},
        "domain": {"holds": dom.domain, "exact": dom.exact},
        "archimedean": {},
        "twist": {
            "injective": _endo_part(is_injective(endo)),
            "rigid": _endo_part(is_rigid(endo)),
            "compatible": _endo_part(is_compatible(endo)),
            "preserves_nonunits": _endo_part(preserves_nonunits(endo)),
        },
    }
    for side in ("right", "left"):
        arch = derived_archimedean(ring, side)
        profile["archimedean"][side] = {"status": arch.status,
                                        "witness": arch.witness}

    predictions = []
    for side in ("right", "left"):
        pc = poly_ring_conditions(ring, endo, side)
        sc = series_ring_conditions(ring, endo, side)
        for model, cond in (("polynomial", pc), ("series", sc)):
            predictions.append({
                "model": model, "side": side,
                "property": "reduced-archimedean",
                "predicted": _predicted_text(cond["satisfied"]),
                "theorem_tag": cond["tag"], "basis": cond["basis"],
            })
        # the domain form: Archimedean domain models need Archimedean
        # domain coefficients with an injective twist, plus nonunit
        # preservation on the right; that is the polynomial condition
        for model in ("polynomial", "series"):
            predictions.append({
                "model": model, "side": side,
                "property": "archimedean-domain",
                "predicted": _predicted_text(pc["satisfied"]),
                "theorem_tag": TAG_ARCH_DOMAIN_MODELS,
                "basis": pc["basis"],
            })
    return ClassificationReport(ring.spec_text, endo.text, profile,
                                tuple(predictions))


def _predicted_text(value) -> str:
    if value is None:
        return "unknown"
    return "yes" if value else "no"


# ---------------------------------------------------------------------------
# quotient gluing


def first_incomparable_principal_pair(ring):
    """First pair of principal ideals, in generator enumeration order,
    with neither containing the other.  Falls back to None."""
    # the ring is commutative, so the ideal of a is R*a: |R| products each
    gens = [a for a in nonunits(ring).vals if a != ring.zero_v]
    require_budget(ring, "principal ideals", len(gens) * ring.card)
    vals = ring.values()
    seen = []
    for a in gens:
        ideal = frozenset(ring.k_mul(r, a) for r in vals)
        if all(ideal != s for _, s in seen):
            seen.append((a, ideal))
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            a, sa = seen[i]
            b, sb = seen[j]
            if not (sa <= sb or sb <= sa):
                return Element(ring, a), Element(ring, b)
    return None


def quotient_intersection_check(ring, gens1, gens2) -> dict:
    """Three gluing statements about a pair of ideals: reduced quotients
    glue to a reduced quotient of the intersection, incomparable ideals
    force zero-divisors there, and radical-contained ideals with
    Archimedean quotients glue to an Archimedean quotient."""
    q1, _ = quotient_by_ideal(ring, gens1)
    q2, _ = quotient_by_ideal(ring, gens2)
    i1 = q1.ideal.members
    i2 = q2.ideal.members
    inter = SubsetHandle(ring, i1 & i2)
    qi, _ = quotient_by_ideal(ring, inter)
    pair = {
        "ideal1": q1.ideal.texts(),
        "ideal2": q2.ideal.texts(),
        "intersection": inter.texts(),
    }

    red1, red2 = is_reduced(q1), is_reduced(q2)
    if red1.reduced and red2.reduced:
        redi = is_reduced(qi)
        if redi.reduced:
            part_reduced = Verdict(
                HOLDS, dict(pair),
                "both quotients reduced, and the quotient by the "
                "intersection is reduced (exhaustive square scans)")
        else:
            part_reduced = Verdict(
                FAILS, {**pair, "square_zero": redi.witness.text},
                "both quotients reduced yet the glued quotient has the "
                "square-zero element %s" % redi.witness.text)
    else:
        culprit = "ideal1" if not red1.reduced else "ideal2"
        part_reduced = Verdict(
            HYPOTHESIS_NOT_MET, {**pair, "non_reduced_quotient": culprit},
            "the quotient by %s is not reduced" % culprit)

    incomparable = not (i1 <= i2 or i2 <= i1)
    if incomparable:
        domi = is_domain(qi)
        if not domi.domain:
            a, b = domi.witness
            part_domain = Verdict(
                HOLDS, {**pair, "a": a.text, "b": b.text},
                "incomparable ideals force the zero product %s*%s in the "
                "glued quotient" % (a.text, b.text))
        else:
            part_domain = Verdict(
                FAILS, dict(pair),
                "incomparable ideals yet the glued quotient is a domain")
    else:
        part_domain = Verdict(
            HYPOTHESIS_NOT_MET, dict(pair),
            "the ideals are comparable; no zero-divisor is forced")

    radical = jacobson_radical(ring)
    rad = radical.members
    inside = i1 <= rad and i2 <= rad
    arch1 = is_archimedean(q1)
    arch2 = is_archimedean(q2)
    if inside and arch1.status == HOLDS and arch2.status == HOLDS:
        archi = is_archimedean(qi)
        if archi.status == HOLDS:
            part_arch = Verdict(
                HOLDS, dict(pair),
                "both ideals lie in the radical, both quotients are right "
                "Archimedean, and the glued quotient is right Archimedean "
                "(exact scans)")
        else:
            part_arch = Verdict(
                FAILS, {**pair, "witness": archi.witness},
                "gluing broke: the quotient by the intersection is not "
                "right Archimedean")
    else:
        unmet = []
        if not inside:
            outside = SubsetHandle(ring, (i1 | i2) - rad).texts()[0]
            unmet.append("ideal element %s escapes the radical {%s}"
                         % (outside, ",".join(radical.texts())))
        if arch1.status != HOLDS:
            unmet.append("first quotient is not right Archimedean")
        if arch2.status != HOLDS:
            unmet.append("second quotient is not right Archimedean")
        part_arch = Verdict(
            HYPOTHESIS_NOT_MET, {**pair, "unmet": unmet},
            "; ".join(unmet))

    return {"pair": pair,
            "reduced_glue": part_reduced,
            "incomparable_not_domain": part_domain,
            "radical_archimedean_glue": part_arch}
