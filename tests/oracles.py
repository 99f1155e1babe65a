"""The tests' brute-force references, one per procedure or scan: every
value scanned, every product taken afresh.  Each docstring names the
fast path it checks; tests/test_fast_paths.py holds the table of fast
paths and oracles.  This module holds no test."""

import itertools
import math

from skewarch import props, suites
from skewarch.prng import derive_rng
from skewarch.props import (FAILS, HOLDS, HYPOTHESIS_NOT_MET, POWER_PRODUCT_BUDGET,
                            Verdict, _falsifier_conclusion, random_poly, random_series)
from skewarch.rings import (NilpotenceResult, XYQuotientRing, construct_ring,
                            require_budget, scan_domain)
from skewarch.skew import (SkewPoly, TruncSeries, parse_poly_text,
                           solve_right_divisibility)


def fresh_xyq():
    """xyq:gf:2:1:N=8 outside the construction caches, for planted faults."""
    return XYQuotientRing(construct_ring("gf:2:1"), 8)


# plain-integer oracles for Z/n, independent of the library


def zn_units(n):
    """rings.units on zmod:n: the a with gcd(a, n) = 1."""
    return sorted(a for a in range(n) if math.gcd(a, n) == 1)


def zn_zero_divisors(n):
    """rings.zero_divisors on zmod:n, by every pair of integers."""
    out = set()
    for a in range(n):
        for b in range(n):
            if b != 0 and (a * b) % n == 0:
                out.add(a)
    out.add(0)
    return sorted(out)


def zn_idempotents(n):
    """rings.idempotents on zmod:n."""
    return sorted(a for a in range(n) if (a * a) % n == a)


def zn_nilpotent(n, a):
    """rings.is_nilpotent on zmod:n."""
    p = a % n
    seen = set()
    while p not in seen:
        if p == 0:
            return True
        seen.add(p)
        p = (p * a) % n
    return False


def zn_jacobson(n):
    """rings.jacobson_radical on zmod:n.  Quasi-regularity: r is radical
    iff 1 - a*r is a unit for every a."""
    us = set(zn_units(n))
    return sorted(r for r in range(n)
                  if all((1 - a * r) % n in us for a in range(n)))


def zn_chain(n, a):
    """rings.principal_power_chain on zmod:n, up to the first repeat."""
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


# GF(4) as 2-bit integers c0 | c1<<1 with modulus t^2 + t + 1
GF4_MUL = [
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
]
GF4_FROB = [0, 1, 3, 2]     # squaring swaps the two non-identity units


def oracle_closure(parent, seeds, factors=None):
    """The least set of parent values holding seeds and closed under
    negation, sums, and products on both sides with `factors` (with
    itself when None): a subring, or the ideal the seeds generate
    (rings.subring_generated, rings.quotient_by_ideal)."""
    members = set(seeds)
    frontier = list(members)
    while frontier:
        nxt = []
        for a in frontier:
            ms = list(members)
            cands = [parent.k_neg(a)] + [parent.k_add(a, b) for b in ms]
            for r in ms if factors is None else factors:
                cands += (parent.k_mul(r, a), parent.k_mul(a, r))
            for c in cands:
                if c not in members:
                    members.add(c)
                    nxt.append(c)
        frontier = nxt
    return members


def oracle_unit_map(ring):
    """rings.units and is_unit_v: each unit and its inverse, by every pair."""
    vals, one = ring.values(), ring.one_v
    out = {}
    for a in vals:
        for b in vals:
            if ring.k_mul(a, b) == one and ring.k_mul(b, a) == one:
                out[a] = b
                break
    return out


def oracle_radical(ring):
    """rings.jacobson_radical by quasi-regularity: a is in J iff 1 - r*a
    is a unit for every r."""
    vals, umap = ring.values(), oracle_unit_map(ring)
    return [a for a in vals
            if all(ring.k_sub(ring.one_v, ring.k_mul(r, a)) in umap
                   for r in vals)]


def oracle_zero_divisors(ring, side):
    """rings.zero_divisors on one side, by every pair."""
    vals, z = ring.values(), ring.zero_v
    mul = ring.k_mul if side == "left" else lambda a, b: ring.k_mul(b, a)
    return [a for a in vals if any(b != z and mul(a, b) == z for b in vals)]


def oracle_domain_witness(ring):
    """rings.is_domain on a finite ring: the first (a, b), both nonzero,
    with a*b = 0 in value order."""
    vals, z = ring.values(), ring.zero_v
    for a in vals:
        for b in vals:
            if a != z and b != z and ring.k_mul(a, b) == z:
                return a, b
    return None


def oracle_scope_domain_witness(ring):
    """rings.is_domain on a truncated model by the plain pair scan: the
    first pair of nonzero scope values, in scope order, whose lifts
    multiply to zero in the widened copy, or None."""
    dom = scan_domain(ring)
    zero = dom.ring.zero_v
    nonzero = [(a, la) for a, la in zip(dom.values, dom.lifted) if la != zero]
    for a, la in nonzero:
        for b, lb in nonzero:
            if dom.ring.k_mul(la, lb) == zero:
                return a, b
    return None


def oracle_nilpotence(ring, v):
    """rings.is_nilpotent by power-cycle detection: walk a, a^2, ...
    until zero or a repeat."""
    seen, p, k = set(), v, 1
    while p not in seen:
        if p == ring.zero_v:
            return NilpotenceResult(True, k, True, "zero power reached")
        seen.add(p)
        p = ring.k_mul(p, v)
        k += 1
    return NilpotenceResult(False, None, True, "power cycle without zero")


def oracle_power_chain(ring, v, side):
    """rings.principal_power_chain: the sets {v^n*r : r in R} (right) or
    {r*v^n : r in R} (left), each from every r and the power v^n, up to
    the first repeat, which the chain keeps from there on."""
    vals, chain, power = ring.values(), [], v
    while True:
        if side == "right":
            cur = {ring.k_mul(power, r) for r in vals}
        else:
            cur = {ring.k_mul(r, power) for r in vals}
        if chain and cur == chain[-1]:
            return chain
        chain.append(cur)
        power = ring.k_mul(power, v)


def oracle_idempotents(ring):
    """rings.idempotents, by squaring every value."""
    return {v for v in ring.values() if ring.k_mul(v, v) == v}


def poly_mulmod(x, y, p, irr):
    """GaloisFieldRing's table product: x*y as polynomials over Z/p,
    every coefficient pair multiplied, then x^d rewritten through the
    monic irreducible from the top down."""
    k = len(irr) - 1
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] += x[i] * y[j]
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d] % p
        for j in range(k + 1):
            prod[d - k + j] -= c * irr[j]
    return tuple(c % p for c in prod[:k])


def schoolbook(add, mul, zero, xs, ys, limit, twist=None):
    """Coefficients 0..limit of sum x_i * twist^i(y_j) u^(i+j), every
    pair multiplied; twist is one application of the map (skew.window_mul
    and the truncated series product)."""
    powers = [list(ys)]
    for _ in range(len(xs)):
        powers.append([twist(y) if twist else y for y in powers[-1]])
    out = [zero] * (limit + 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(powers[i]):
            if i + j <= limit:
                out[i + j] = add(out[i + j], mul(x, y))
    return out


def xyq_terms(ring, v):
    """The value, a pair (x-series, y-series) sharing the constant term,
    as {(x-degree, y-degree): coefficient}."""
    terms = {(0, 0): v[0][0]}
    for i, c in enumerate(v[0][1:]):
        terms[(i + 1, 0)] = c
    for j, c in enumerate(v[1][1:]):
        terms[(0, j + 1)] = c
    return terms


def xyq_mul(ring, v, w):
    """XYQuotientRing.k_mul expanded monomial by monomial, dropping every
    mixed monomial (x*y = 0) and every degree past the precision."""
    F, N = ring.field, ring.precision
    acc = {}
    for (a, b), c in xyq_terms(ring, v).items():
        for (d, e), k in xyq_terms(ring, w).items():
            dx, dy = a + d, b + e
            if (dx and dy) or dx > N or dy > N:
                continue
            acc[(dx, dy)] = F.k_add(acc.get((dx, dy), F.zero_v), F.k_mul(c, k))
    return (tuple(acc.get((i, 0), F.zero_v) for i in range(N + 1)),
            tuple(acc.get((0, j), F.zero_v) for j in range(N + 1)))


def reference_mul(ring):
    """The truncated models' k_mul from the definition; a finite ring's own."""
    if ring.kind == "xyq":
        return lambda v, w: xyq_mul(ring, v, w)
    if ring.kind == "tser":
        b = ring.base
        return lambda v, w: tuple(schoolbook(b.k_add, b.k_mul, b.zero_v,
                                             v, w, ring.precision))
    return ring.k_mul


def series_products_per_product(triples):
    """TruncSeriesRing.k_mul inside one series_products() memo: each
    (ring, x, y) multiplied afresh by schoolbook over its own base."""
    return [reference_mul(ring)(x, y) for ring, x, y in triples]


def oracle_endomorphism(ring, image):
    """The all-pairs law check of TableEndo: image fixes 1 and respects
    + and * on every pair of values."""
    vals = ring.values()
    return image[ring.one_v] == ring.one_v and all(
        image[ring.k_add(a, b)] == ring.k_add(image[a], image[b])
        and image[ring.k_mul(a, b)] == ring.k_mul(image[a], image[b])
        for a in vals for b in vals)


def oracle_rigid(endo):
    """endos.is_rigid by multiplying a*alpha(a) for every value; on a
    truncated model for every scope value, its lift times the widened
    twist of it in the widened copy."""
    ring = endo.ring
    if ring.truncated:
        dom = scan_domain(ring)
        wide, apply, pairs = dom.ring, endo.widened().apply_v, zip(dom.values, dom.lifted)
    else:
        wide, apply, pairs = ring, endo.apply_v, ((a, a) for a in ring.values())
    for a, la in pairs:
        if la != wide.zero_v and wide.k_mul(la, apply(la)) == wide.zero_v:
            return False, {"a": ring.text_of_v(a)}
    return True, None


def oracle_compatible(endo):
    """endos.is_compatible by multiplying a*b and a*alpha(b) for every pair."""
    ring, z = endo.ring, endo.ring.zero_v
    for a in ring.values():
        for b in ring.values():
            plain = ring.k_mul(a, b) == z
            if plain != (ring.k_mul(a, endo.apply_v(b)) == z):
                direction = ("a*b = 0 but a*alpha(b) != 0" if plain
                             else "a*alpha(b) = 0 but a*b != 0")
                return False, {"a": ring.text_of_v(a), "b": ring.text_of_v(b),
                               "direction": direction}
    return True, None


def oracle_skew_mul(fs, gs):
    """SkewPoly's product over gf:2:2 under the Frobenius, from the hand
    tables: coefficient m is sum f_i * frob^i(g_j) over i+j=m."""
    out = [0] * (len(fs) + len(gs) - 1)
    for i, fi in enumerate(fs):
        for j, gj in enumerate(gs):
            tw = gj if i % 2 == 0 else GF4_FROB[gj]
            out[i + j] ^= GF4_MUL[fi][tw]
    return out


def dense_geometric_inverse(f, precision):
    """skew.geometric_inverse as (series, terminated, index): the inverse
    of 1 + f*u from every power of f*u, each the one before times f*u by
    skew_product, built whole, truncated to a full window and subtracted
    or added whole."""
    ring, endo, zero = f.ring, f.endo, f.ring.zero_v
    fu = [zero] + list(f.coeffs)
    acc = TruncSeries.constant(ring, endo, ring.one_v, precision)
    power = [ring.one_v]
    for k in itertools.count(1):
        power = skew_product(ring, endo, power, fu)
        order = _order(power, zero)
        if order is None:
            return acc, True, k
        term = TruncSeries(ring, endo, precision, power[:precision + 1])
        acc = acc - term if k % 2 else acc + term
        if order > precision:
            return acc, False, None


def _order(coeffs, zero):
    """The least degree with a nonzero coefficient, None for zero."""
    return next((i for i, c in enumerate(coeffs) if c != zero), None)


def oracle_regular(ring):
    """props.von_neumann_regular: the first a with no x making a*x*a = a,
    by two products per x."""
    vals = ring.values()
    for a in vals:
        if not any(ring.k_mul(ring.k_mul(a, x), a) == a for x in vals):
            return False, ring.element(a)
    return True, None


def oracle_archimedean(ring, side):
    """props.is_archimedean as (status, witness, certificate): the power
    chain of every nonunit, in value order, until one misses {0}."""
    umap = oracle_unit_map(ring)
    nu = [v for v in ring.values() if v not in umap]
    for v in nu:
        chain = oracle_power_chain(ring, v, side)
        if chain[-1] != {ring.zero_v}:
            text = ring.text_of_v(v)
            stab = [ring.text_of_v(u) for u in ring.values() if u in chain[-1]]
            return ("fails", {"a": text, "stabilized": stab},
                    "principal power chain of %s stabilizes at {%s} after %d "
                    "steps without reaching {0} (exact)"
                    % (text, ",".join(stab), len(chain)))
    return ("holds", None, "all %d nonunit power chains stabilize at {0} "
            "(exhaustive %s-side scan)" % (len(nu), side))


def geometric_check_per_draw(ring, endo, samples, seed, precision=16):
    """props.geometric_termination_check with every draw checked afresh,
    on an f*u of its own, its termination read from the dense sum and
    its zero-power index from dense powers: the oracle of its one check
    per distinct sample."""
    rng = derive_rng(seed, "geometric/%s/%s" % (ring.spec_text, endo.stream_text))
    samples = scan_domain(ring).sample_count(samples)
    terminated = 0
    for _ in range(samples):
        f = random_poly(ring, endo, rng, max_terms=3)
        if f.is_zero:
            continue
        _, stopped, index = dense_geometric_inverse(f, precision)
        probe_index = dense_zero_power(f.shift(1), precision + 2, precision)
        if stopped:
            terminated += 1
            if probe_index != index:
                return props.Verdict(
                    FAILS,
                    {"f": f.to_text(), "termination_index": index,
                     "probe_index": probe_index},
                    "expansion terminated at %d but the power probe says %s"
                    % (index, probe_index))
        elif probe_index is not None:
            return props.Verdict(
                FAILS,
                {"f": f.to_text(), "probe_index": probe_index},
                "f*u has exact zero power %d inside the window yet the "
                "expansion did not terminate" % probe_index)
    return props.Verdict(
        HOLDS, None,
        "two-sided inverse identity and termination/nilpotency agreement "
        "verified on %d sampled polynomials (%d with polynomial inverse)"
        % (samples, terminated))


def skew_product(ring, endo, xs, ys, limit=None):
    """Coefficients 0..limit (up to the sum of the degrees when None) of
    sum x_i * alpha^i(y_j) u^(i+j), on the ring's own kernels and one
    application of the twist at a time: the twisted product with no
    skew.window_mul.  Zero coefficients are skipped; they add nothing."""
    zero = ring.zero_v
    xs = [(i, x) for i, x in enumerate(xs) if x != zero]
    ys = [(j, y) for j, y in enumerate(ys) if y != zero]
    if limit is None:
        limit = (xs[-1][0] if xs else -1) + (ys[-1][0] if ys else -1)
    out = [zero] * (limit + 1)
    twisted, applied = [y for _, y in ys], 0
    for i, x in xs:
        while applied < i and not endo.is_identity:
            twisted = [endo.apply_v(y) for y in twisted]
            applied += 1
        for (j, _), y in zip(ys, twisted):
            if i + j <= limit:
                out[i + j] = ring.k_add(out[i + j], ring.k_mul(x, y))
    return out


def dense_zero_power(f, top, precision):
    """The least k in 1..top with f^k = 0 for a SkewPoly f, when every
    lower power has order at most precision; None otherwise.  Each power
    is the product of the one before and f by skew_product, built whole,
    with no SkewPoly.power."""
    ring, endo, zero = f.ring, f.endo, f.ring.zero_v
    power = list(f.coeffs)
    for k in range(1, top + 1):
        order = _order(power, zero)
        if order is None:
            return k
        if order > precision:
            return None
        power = skew_product(ring, endo, power, f.coeffs)
    return None


def zero_divisor_probe_in_full(ring, endo, side, samples, seed):
    """props.poly_zero_divisor_probe with every sampled product in full,
    by skew_product."""
    rng = derive_rng(seed, "polyzd/%s/%s/%s" % (ring.spec_text, endo.stream_text, side))
    for _ in range(scan_domain(ring).sample_count(samples)):
        f = random_poly(ring, endo, rng, max_terms=3)
        b = random_poly(ring, endo, rng, max_terms=3)
        if f.is_zero or b.is_zero:
            continue
        left, right = (b, f) if side == "right" else (f, b)
        if all(c == ring.zero_v for c in skew_product(ring, endo, left.coeffs, right.coeffs)):
            return {"f": f.to_text(), "b": b.to_text()}
    return None


def _square_is_genuine(s):
    """skew.nilpotency_probe(s, bound=2).genuine for an s with s*s = 0:
    s inside the half-precision window and, over a truncated model, a
    square that still vanishes with widened coefficients at twice the
    precision, by skew_product."""
    ring, endo = s.ring, s.endo
    if s.support() > s.precision // 2:
        return False
    if not ring.truncated:
        return True
    wide, wendo = ring.widen(), endo.widened()
    lifted = [ring.lift_v(c) for c in s.coeffs]
    return all(c == wide.zero_v for c in
               skew_product(wide, wendo, lifted, lifted, 2 * s.precision))


def square_scan_in_full(ring, endo, precision, seed):
    """The sampled branch of props.series_reduced_check under a rigid
    twist, with every square built in full by skew_product: its status,
    witness and count of truncation artifacts."""
    rng = derive_rng(seed, "series-square/%s/%s" % (ring.spec_text, endo.stream_text))
    artifacts = 0
    for _ in range(scan_domain(ring).sample_count(2000)):
        s = random_series(ring, endo, rng, precision, max_support=precision // 2)
        if s.is_zero:
            continue
        if all(c == ring.zero_v for c in skew_product(ring, endo, s.coeffs, s.coeffs,
                                                      precision)):
            if _square_is_genuine(s) and props._square_in_base_window(s):
                return FAILS, {"s": s.to_text()}, artifacts
            artifacts += 1
    return HOLDS, None, artifacts


def oracle_power_product_equivalence(ring, endo):
    """props.twisted_power_product_equivalence on a finite ring: the
    ordered scan over every base tuple, exponent tuple and twist tuple,
    multiplying each twisted product out."""
    rigid, rigid_witness = oracle_rigid(endo)
    vals = [v for v in ring.values() if v != ring.zero_v]
    n_max, k_max, t_max = 3, 3, 3
    while (len(vals) * k_max * (t_max + 1)) ** n_max > POWER_PRODUCT_BUDGET:
        if t_max > 1:
            t_max -= 1
        elif k_max > 1:
            k_max -= 1
        elif n_max > 1:
            n_max -= 1
        else:
            break
    bounds = "lengths <= %d, exponents <= %d, twist depths <= %d" % (
        n_max, k_max, t_max)
    images = {endo.apply_v(v) for v in ring.values()}
    if oracle_domain_witness(ring) is None and len(images) == ring.card:
        return Verdict(
            HOLDS, None,
            "domain with injective twist: every factor of a nonzero-base "
            "product is nonzero, so both sides vanish only on zero bases "
            "(exact shortcut)", ())
    tbl = {a: [[endo.power_apply_v(t, ring.k_pow(a, k))
                for t in range(t_max + 1)] for k in range(1, k_max + 1)]
           for a in vals}
    zero = ring.zero_v
    violation = None
    checked = 0
    for n in range(1, n_max + 1):
        for tup in itertools.product(vals, repeat=n):
            flags = set()
            for perm in itertools.permutations(tup):
                acc = perm[0]
                for x in perm[1:]:
                    acc = ring.k_mul(acc, x)
                flags.add(acc == zero)
            if len(flags) > 1:
                violation = {"bases": [ring.text_of_v(a) for a in tup],
                             "kind": "arrangement asymmetry"}
                break
            rhs_zero = flags.pop()
            for ks in itertools.product(range(1, k_max + 1), repeat=n):
                for ts in itertools.product(range(t_max + 1), repeat=n):
                    acc = tbl[tup[0]][ks[0] - 1][ts[0]]
                    for i in range(1, n):
                        acc = ring.k_mul(acc, tbl[tup[i]][ks[i] - 1][ts[i]])
                    checked += 1
                    if (acc == zero) != rhs_zero:
                        violation = {
                            "bases": [ring.text_of_v(a) for a in tup],
                            "exponents": list(ks), "twists": list(ts),
                            "twisted_product": "zero" if acc == zero
                            else "nonzero",
                            "plain_product": "zero" if rhs_zero else "nonzero"}
                        break
                if violation:
                    break
            if violation:
                break
        if violation:
            break
    if rigid:
        if violation:
            return Verdict(FAILS, violation,
                           "rigid twist yet the equivalence broke (%s)" % bounds)
        return Verdict(HOLDS, None,
                       "equivalence verified exhaustively over nonzero bases "
                       "(%s; %d twisted products)" % (bounds, checked))
    # is_rigid's note on a finite ring
    note = "a*alpha(a) = 0 with a != 0"
    if violation:
        return Verdict(HYPOTHESIS_NOT_MET, {"demonstration": violation,
                                            "rigid_witness": rigid_witness},
                       "twist is not rigid (%s); the scan exhibits how the "
                       "equivalence then breaks (%s)" % (note, bounds))
    return Verdict(HYPOTHESIS_NOT_MET, {"rigid_witness": rigid_witness},
                   "twist is not rigid (%s); no break found within %s"
                   % (note, bounds))


# the three scans that multiply truncated-model values, each with every
# product taken afresh from the ring's kernel: the oracles of the scans'
# per-call product memos


def arithmetic_per_product(entry, ring, endo, config):
    """suites._suite_arithmetic with no product memo."""
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
    add, mul = ring.k_add, ring.k_mul
    sums = [[add(a, b) for b in tri] for a in tri]
    prods = [[mul(a, b) for b in tri] for a in tri]
    for i, a in enumerate(tri):
        for j, b in enumerate(tri):
            if sums[i][j] != sums[j][i]:
                return suites._law_failure(ring, "additive commutativity",
                                           [("a", a), ("b", b)])
            for k, c in enumerate(tri):
                if mul(prods[i][j], c) != mul(a, prods[j][k]):
                    return suites._law_failure(ring, "multiplicative associativity",
                                               [("a", a), ("b", b), ("c", c)])
                if mul(a, sums[j][k]) != add(prods[i][j], prods[i][k]):
                    return suites._law_failure(ring, "left distributivity",
                                               [("a", a), ("b", b), ("c", c)])
                if mul(sums[i][j], c) != add(prods[i][k], prods[j][k]):
                    return suites._law_failure(ring, "right distributivity",
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


def two_variable_scans_per_product(ring):
    """props._two_variable_scans with no product memo and no ring memo."""
    ser = ring.series
    pool = scan_domain(ring).values
    for v in pool:
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


def scope_power_products_per_product(ring, endo, rigidity, seed):
    """props._scope_power_product_equivalence with no product memo and
    every twisted power built afresh; rigidity is (holds, witness), the
    twist's rigidity at scope."""
    rigid, rigid_witness = rigidity
    dom = scan_domain(ring, 2)
    wide = dom.ring
    wendo = endo.widened()
    rng = derive_rng(seed, "powerprod/%s/%s" % (ring.spec_text, endo.stream_text))
    pool, lifts = zip(*((v, lv) for v, lv in zip(dom.values, dom.lifted)
                        if v != ring.zero_v))
    degs = [ring.block_degrees(v) for v in pool]
    zero = wide.zero_v
    checked = 0
    draws = 0
    while (checked < props.POWER_PRODUCT_SAMPLES
           and draws < props.POWER_PRODUCT_SAMPLES * 20):
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
        tup = [pool[i] for i in picks]
        lifted = [lifts[i] for i in picks]
        acc = wide.one_v
        for v, k, t in zip(lifted, ks, ts):
            acc = wide.k_mul(acc, wendo.power_apply_v(t, wide.k_pow(v, k)))
        plain = wide.one_v
        for v in lifted:
            plain = wide.k_mul(plain, v)
        plain_zero = plain == zero
        checked += 1
        if (acc == zero) != plain_zero:
            witness = {"bases": [ring.text_of_v(v) for v in tup],
                       "exponents": ks, "twists": ts}
            if rigid:
                return Verdict(FAILS, witness,
                               "rigid twist yet the equivalence broke in "
                               "the widened model within the degree bound")
            return Verdict(HYPOTHESIS_NOT_MET,
                           {"demonstration": witness},
                           "twist not rigid; equivalence break exhibited")
    if rigid:
        return Verdict(
            HOLDS, None,
            "equivalence verified on %d sampled scope tuples whose twisted "
            "degree bounds fit the widened window, so the zero tests are "
            "exact (twist rigid at scope)" % checked)
    return Verdict(
        HYPOTHESIS_NOT_MET, {"rigid_witness": rigid_witness},
        "twist is not rigid at scope; no break found in %d guarded samples"
        % checked)


def reference_falsifier(ring, endo, precision=16, depth=5, budget=10_000, seed=0,
                        side="right"):
    """props.archimedean_falsifier: the finite-ring candidate search, stage by stage."""
    rng = derive_rng(seed, "falsify/%s/%s/%s" % (ring.spec_text, endo.stream_text, side))
    notes = []
    examined = 0

    # stage 1: constant divisors; the chain stabilization is exact
    vals, zero, umap = ring.values(), ring.zero_v, oracle_unit_map(ring)
    nus = [v for v in vals if v not in umap]
    require_budget(ring, "constant-stage chains",
                   len(nus) * ring.card * (ring.card.bit_length() + 1))
    for cv in nus:
        examined += 1
        stab = oracle_power_chain(ring, cv, side)[-1]
        if stab != {zero}:
            stable = [v for v in vals if v in stab]
            f0 = next(v for v in stable if v != zero)
            g = TruncSeries.constant(ring, endo, cv, precision)
            f = TruncSeries.constant(ring, endo, f0, precision)
            h_texts, power = [], ring.one_v
            for n in range(1, depth + 1):
                # solve_right_divisibility's least witness of f = h*g^n
                # (or g^n*h): its constant term is the first value c with
                # c*cv^n = f0, and each later one the first value that
                # annihilates, zero, which every ring lists first
                power = ring.k_mul(power, cv)
                c = next((c for c in vals if ring.k_mul(c, power) == f0), None)
                if c is None:
                    raise RuntimeError("constant-stage divisibility witness "
                                       "not found at n = %d" % n)
                h_texts.append(TruncSeries.constant(ring, endo, c, precision).to_text())
            return Verdict(
                FAILS,
                {"f": f.to_text(), "g": g.to_text(), "h": h_texts,
                 "stabilized": [ring.text_of_v(v) for v in stable]},
                "constant-stage witness: the %s chain of %s stabilizes at "
                "{%s} (exact), so %s stays divisible by every power; "
                "witnesses replayed for n = 1..%d"
                % (side, ring.text_of_v(cv),
                   ",".join(ring.text_of_v(v) for v in stable),
                   ring.text_of_v(f0), depth))
    notes.append("constant stage: all %d nonunit chains reach {0} (exact)"
                 % len(nus))

    # stage 2: monomial survivors; a twist power that turns the divisor
    # constant into a unit keeps the monomial divisible at every depth
    if side == "right":
        found = None
        for cv in nus:
            if cv == ring.zero_v or found:
                continue
            for m in range(1, min(3, precision) + 1):
                examined += 1
                e = endo.power_apply_v(m, cv)
                e_inv = umap.get(e)
                if e_inv is None:
                    continue
                g = TruncSeries.constant(ring, endo, cv, precision)
                f = TruncSeries.monomial(ring, endo, m, ring.one_v, precision)
                h_texts = []
                ok = True
                for n in range(1, depth + 1):
                    h = TruncSeries.monomial(ring, endo, m,
                                             ring.k_pow(e_inv, n), precision)
                    if h * (g ** n) != f:
                        ok = False
                        break
                    h_texts.append(h.to_text())
                if ok:
                    found = (f, g, h_texts, m, cv, e)
                    break
        if found:
            f, g, h_texts, m, cv, e = found
            return Verdict(
                FAILS,
                {"f": f.to_text(), "g": g.to_text(), "h": h_texts,
                 "unit_image": ring.text_of_v(e)},
                "monomial-stage witness: twist power %d sends the nonunit "
                "%s to the unit %s, so u^%d stays divisible by every power "
                "of %s via h = image^-n * u^%d (identity independent of "
                "the depth; replayed for n = 1..%d)"
                % (m, ring.text_of_v(cv), ring.text_of_v(e), m,
                   ring.text_of_v(cv), m, depth))
        notes.append("monomial stage: no twist power of a nonunit divisor "
                     "constant becomes a unit")
    else:
        notes.append("monomial stage: powers of a nonunit stay nonunit, so "
                     "no left-side monomial survives a constant divisor")

    # stage 3: seeded random pairs; a persistent f must have every
    # coefficient inside the stabilized chain of the matching twisted
    # divisor constant
    tried = 0
    while examined + tried < budget and tried < 200:
        tried += 1
        g = random_series(ring, endo, rng, precision, max_support=4)
        g0 = g.coeffs[0]
        if g0 == zero or g0 in umap:
            continue
        admissible = True
        for m in range(precision + 1):
            cm = endo.power_apply_v(m, g0) if side == "right" else g0
            if cm in umap:
                continue
            if oracle_power_chain(ring, cm, side)[-1] == {zero}:
                admissible = False
                break
        if admissible:
            f = random_series(ring, endo, rng, precision, max_support=4)
            if f.is_zero:
                continue
            ok = []
            for n in range(1, depth + 1):
                res = solve_right_divisibility(f, g, n, side=side, node_limit=budget)
                if res.status != "found":
                    break
                ok.append(res.h.to_text())
            if len(ok) == depth:
                return Verdict(
                    FAILS, {"f": f.to_text(), "g": g.to_text(), "h": ok},
                    "random-stage witness replayed for n = 1..%d "
                    "(truncation-scale; persistence not separately "
                    "certified)" % depth)
    notes.append("random stage: %d filtered candidates, none survived" % tried)

    return _falsifier_conclusion(ring, endo, side, notes, examined + tried)


MASK64 = (1 << 64) - 1


def reference_outputs(seed):
    """SplitMix64.below's batches one output at a time, as Steele, Lea and
    Flood state it."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)
