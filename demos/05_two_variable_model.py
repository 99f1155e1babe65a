"""The two-variable model: reduced, shrinking-power, yet not a domain.

The coefficient ring here is F2[[x,y]]/(xy) truncated at degree 8 per
variable: constants plus an x-block plus a y-block, with x*y = 0.  It
has zero-divisors but no nonzero square-zero elements, and the registry
derives the shrinking-power property structurally by collapsing each
variable block in turn.  On top of it sits the series model in a new
variable t, either untwisted or twisted by the substitution x -> x^2
(y fixed), which makes t genuinely noncommutative with the
coefficients while keeping every hypothesis of the series
characterizations intact.
"""

from skewarch import (
    TruncSeries,
    archimedean_falsifier,
    build_endo,
    construct_ring,
    derived_archimedean,
    is_rigid,
    preserves_nonunits,
    series_reduced_check,
)

SPEC = "xyq:gf:2:1:N=8"


def pretty(ring, v):
    fz = ring.field.zero_v
    terms = [] if v[0][0] == fz else ["1"]
    for half, var in zip(v, "xy"):
        for i, c in enumerate(half[1:], 1):
            if c != fz:
                terms.append(var if i == 1 else "%s^%d" % (var, i))
    return " + ".join(terms) if terms else "0"


def pretty_series(s):
    terms = []
    for k, c in enumerate(s.coeffs):
        if c == s.ring.zero_v:
            continue
        inner = pretty(s.ring, c)
        if "+" in inner:
            inner = "(%s)" % inner
        terms.append(inner if k == 0 else
                     "%s*t^%d" % (inner, k) if k > 1 else "%s*t" % inner)
    return " + ".join(terms) if terms else "0"


def main():
    ring = construct_ring(SPEC)
    endo = build_endo(ring, "endo:xsq")
    x, y = ring.x_v(1), ring.y_v(1)

    print("== coefficient ring %s ==" % SPEC)
    print("x * y = %s        (zero-divisors: not a domain)"
          % pretty(ring, ring.k_mul(x, y)))
    print("alpha(x)   = %s" % pretty(ring, endo.apply_v(x)))
    print("alpha(x^2) = %s" % pretty(ring, endo.apply_v(ring.x_v(2))))
    print("alpha(y)   = %s" % pretty(ring, endo.apply_v(y)))
    print("rigid: %s   preserves nonunits: %s"
          % (is_rigid(endo).holds, preserves_nonunits(endo).holds))

    v = series_reduced_check(ring, endo)
    print("series model reduced: %s (%s)" % (v.status, v.certificate))

    print("\n== derived shrinking-power verdict ==")
    v = derived_archimedean(ring)
    print("status: %s   tags: %s" % (v.status, ", ".join(v.theorem_tags)))
    for step in v.witness["derivation"]:
        print("  * %s" % step)

    print("\n== the twist acts on the series variable ==")
    xc = TruncSeries.constant(ring, endo, x, 4)
    t = TruncSeries.monomial(ring, endo, 1, ring.one_v, 4)
    print("t * x = %s" % pretty_series(t * xc))
    print("x * t = %s" % pretty_series(xc * t))

    print("\n== falsifier finds nothing, and says why ==")
    for side in ("right", "left"):
        v = archimedean_falsifier(ring, endo, depth=4, seed=0, side=side)
        print("%5s: %s  tags: %s" % (side, v.status,
                                     ", ".join(v.theorem_tags)))


if __name__ == "__main__":
    main()
