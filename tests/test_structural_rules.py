"""The structural rules for units, nilpotence, zero-divisors, the
radical, domains, zero patterns and the Archimedean property on finite
rings, checked against the brute-force scans they replace, plus
kernel-call bounds and the cost guards of the scans that remain."""

import operator

from hypothesis import given, strategies as st

import pytest

from skewarch.props import (is_archimedean, sandwich_unit_clause,
                            von_neumann_regular)
from skewarch.rings import (
    GaloisFieldRing,
    NilpotenceResult,
    NonEnumerableError,
    ProductRing,
    QuotientRing,
    RingConstructionError,
    SubRing,
    TruncSeriesRing,
    ZmodRing,
    construct_ring,
    derived_ring,
    idempotents,
    is_domain,
    is_nilpotent,
    is_reduced,
    jacobson_radical,
    nilpotent_values,
    nonunits,
    default_irreducible,
    principal_power_chain,
    quotient_by_ideal,
    subring_generated,
    units,
    zero_divisors,
    zero_keys,
)

# ---------------------------------------------------------------------------
# small finite specs: zmod:n (n <= 64), gf:p:k (p^k <= 64), two-factor
# products, and subrings and quotients built from them

MAX_CARD = 64
PRIMES = [p for p in range(2, MAX_CARD + 1) if all(p % d for d in range(2, p))]
CARDS = {**{"zmod:%d" % n: n for n in range(2, MAX_CARD + 1)},
         **{"gf:%d:%d" % (p, k): p ** k for p in PRIMES for k in range(1, 7)
            if p ** k <= MAX_CARD}}


def base_specs(max_card=MAX_CARD):
    return st.sampled_from([s for s, n in CARDS.items() if n <= max_card])


@st.composite
def product_specs(draw):
    first = draw(base_specs(MAX_CARD // 2))
    second = draw(base_specs(MAX_CARD // CARDS[first]))
    return "prod(%s,%s)" % (first, second)


@st.composite
def derived_rings(draw):
    """A subring generated by one or two values, or the quotient by the
    ideal of one or two nonunits, of a zmod, gf or product ring.  Two
    nonunits whose ideal holds 1 give the quotient by the first alone."""
    ring = construct_ring(draw(st.one_of(base_specs(), product_specs())))
    vals = ring.values()
    if draw(st.booleans()):
        gens = draw(st.lists(st.sampled_from(vals), min_size=1, max_size=2))
        sub, _, _ = subring_generated(ring, [ring.text_of_v(v) for v in gens])
        return sub
    umap = oracle_unit_map(ring)
    gens = draw(st.lists(st.sampled_from([v for v in vals if v not in umap]),
                         min_size=1, max_size=2))
    if ring.one_v in oracle_closure(ring, [ring.zero_v, *gens], vals):
        gens = gens[:1]
    quo, _ = quotient_by_ideal(ring, [ring.text_of_v(v) for v in gens])
    return quo


finite_rings = st.one_of(base_specs().map(construct_ring),
                         product_specs().map(construct_ring), derived_rings())


# ---------------------------------------------------------------------------
# brute-force oracles: the scans the structural rules replaced


def oracle_closure(parent, seeds, factors=None):
    """The least set of parent values holding seeds and closed under
    negation, sums, and products on both sides with `factors` (with
    itself when None): a subring, or the ideal the seeds generate."""
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
    vals, one = ring.values(), ring.one_v
    out = {}
    for a in vals:
        for b in vals:
            if ring.k_mul(a, b) == one and ring.k_mul(b, a) == one:
                out[a] = b
                break
    return out


def oracle_radical(ring):
    """Quasi-regularity: a is in J iff 1 - r*a is a unit for every r."""
    vals, umap = ring.values(), oracle_unit_map(ring)
    return [a for a in vals
            if all(ring.k_sub(ring.one_v, ring.k_mul(r, a)) in umap
                   for r in vals)]


def oracle_zero_divisors(ring, side):
    vals, z = ring.values(), ring.zero_v
    mul = ring.k_mul if side == "left" else lambda a, b: ring.k_mul(b, a)
    return [a for a in vals if any(b != z and mul(a, b) == z for b in vals)]


def oracle_domain_witness(ring):
    """The first (a, b), both nonzero, with a*b = 0 in value order."""
    vals, z = ring.values(), ring.zero_v
    for a in vals:
        for b in vals:
            if a != z and b != z and ring.k_mul(a, b) == z:
                return a, b
    return None


def oracle_archimedean(ring, side):
    """The chain scan over every nonunit: (status, witness, certificate)."""
    umap = oracle_unit_map(ring)
    nu = [v for v in ring.values() if v not in umap]
    for v in nu:
        a = ring.element(v)
        chain, stab = principal_power_chain(ring, a)
        if set(stab.vals) != {ring.zero_v}:
            return ("fails", {"a": a.text, "stabilized": stab.texts()},
                    "principal power chain of %s stabilizes at {%s} after %d "
                    "steps without reaching {0} (exact)"
                    % (a.text, ",".join(stab.texts()), len(chain)))
    return ("holds", None, "all %d nonunit power chains stabilize at {0} "
            "(exhaustive %s-side scan)" % (len(nu), side))


def oracle_nilpotence(ring, v):
    """Power-cycle detection: walk a, a^2, ... until zero or a repeat."""
    seen, p, k = set(), v, 1
    while p not in seen:
        if p == ring.zero_v:
            return NilpotenceResult(True, k, True, "zero power reached")
        seen.add(p)
        p = ring.k_mul(p, v)
        k += 1
    return NilpotenceResult(False, None, True, "power cycle without zero")


def oracle_power_chain(ring, v):
    """The sets {r*v^n : r in R}, each from every r and the power v^n,
    up to the first repeat."""
    vals, chain, power = ring.values(), [], v
    while True:
        cur = {ring.k_mul(r, power) for r in vals}
        if chain and cur == chain[-1]:
            return chain
        chain.append(cur)
        power = ring.k_mul(power, v)


def oracle_regular(ring):
    """The first a with no x making a*x*a = a, by two products per x."""
    vals = ring.values()
    for a in vals:
        if not any(ring.k_mul(ring.k_mul(a, x), a) == a for x in vals):
            return False, ring.element(a)
    return True, None


# ---------------------------------------------------------------------------
# each rule against its oracle


def check_members(ring):
    """A subring's members, and a quotient's ideal, are the two-sided
    closure of its seeds.  A subring lists its members, and a quotient
    its coset representatives (each the coset member of least parent
    index), in parent value order."""
    if ring.kind not in ("sub", "quot"):
        return
    parent = ring.parent
    pvals = parent.values()
    gens = ring.gens
    if ring.kind == "sub":
        assert ring.members == oracle_closure(parent,
                                              [ring.zero_v, ring.one_v, *gens])
        assert ring.values() == [v for v in pvals if v in ring.members]
        return
    assert ring.ideal.members == oracle_closure(parent, [parent.zero_v, *gens],
                                                pvals)
    index = {v: i for i, v in enumerate(pvals)}
    least = {a: min((parent.k_add(a, i) for i in ring.ideal.members),
                    key=index.__getitem__)
             for a in pvals}
    assert all(ring.project_v(a) == r for a, r in least.items())
    reps = set(least.values())
    assert ring.values() == [v for v in pvals if v in reps]


def check_units(ring):
    umap = oracle_unit_map(ring)
    assert units(ring).vals == tuple(v for v in ring.values() if v in umap)
    for v in ring.values():
        assert ring.is_unit_v(v) == umap.get(v)


def check_k_pow(ring):
    for v in ring.values()[:8]:
        acc = ring.one_v
        for n in range(40):
            assert ring.k_pow(v, n) == acc
            acc = ring.k_mul(acc, v)


def check_radical(ring):
    assert list(jacobson_radical(ring).vals) == oracle_radical(ring)


def check_idempotents(ring):
    assert idempotents(ring).vals == tuple(v for v in ring.values()
                                           if ring.k_mul(v, v) == v)


def check_power_chain(ring):
    """Each set built from the one before it is the set built from every
    value, in value order."""
    vals = ring.values()
    for v in vals:
        chain, stab = principal_power_chain(ring, ring.element(v))
        want = oracle_power_chain(ring, v)
        assert [s.vals for s in chain] == \
            [tuple(u for u in vals if u in w) for w in want]
        assert stab.members == want[-1]


def check_regular(ring):
    assert von_neumann_regular(ring) == oracle_regular(ring)


def check_zero_divisors(ring):
    for side in ("right", "left"):
        assert list(zero_divisors(ring).vals) == oracle_zero_divisors(ring, side)


def check_nilpotence(ring):
    for v in ring.values():
        assert is_nilpotent(ring, ring.element(v)) == oracle_nilpotence(ring, v)


def check_domain(ring):
    res = is_domain(ring)
    want = oracle_domain_witness(ring)
    assert res.domain == (want is None) and res.exact
    assert (None if res.witness is None
            else tuple(e.v for e in res.witness)) == want


def check_archimedean(ring):
    for side in ("right", "left"):
        v = is_archimedean(ring, side)
        assert (v.status, v.witness, v.certificate) == \
            oracle_archimedean(ring, side)


def check_zero_pattern(ring):
    """The zero keys are masks under & iff the ring is reduced, and
    either way they multiply and decide every product's zero-ness."""
    vals, z = ring.values(), ring.zero_v
    key, times, zero = zero_keys(ring)
    reduced = all(v == z or ring.k_mul(v, v) != z for v in vals)
    assert (times is operator.and_) == reduced
    for a in vals:
        assert (key(a) == zero) == (a == z)
        for b in vals:
            ab = ring.k_mul(a, b)
            assert key(ab) == times(key(a), key(b))
            assert (ab == z) == (times(key(a), key(b)) == zero)


@given(finite_rings)
def test_structural_rules_match_their_brute_force_scans(ring):
    # one test for all rules, so each drawn ring is built and validated once
    for check in (check_members, check_units, check_k_pow, check_radical,
                  check_nilpotence, check_zero_divisors, check_domain,
                  check_zero_pattern, check_archimedean, check_power_chain,
                  check_idempotents, check_regular):
        check(ring)


# ---------------------------------------------------------------------------
# scaling probes, bounded by kernel calls on fresh (uncached) instances


def counting(*rings, kernels=("k_mul",)):
    """Wrap the named kernels (k_mul by default) on each instance; returns
    the shared call counter."""
    calls = [0]
    for ring in rings:
        for name in kernels:
            def kernel(*args, _kernel=getattr(ring, name)):
                calls[0] += 1
                return _kernel(*args)
            setattr(ring, name, kernel)
    return calls


KERNELS = ("k_add", "k_neg", "k_mul")


def test_archimedean_on_zmod_4096_takes_few_products():
    ring = ZmodRing(4096)
    calls = counting(ring)
    assert is_archimedean(ring, "right").status == "holds"
    assert is_archimedean(ring, "left").status == "holds"
    assert calls[0] <= 25_000


def test_radical_and_units_of_gf_2_8_take_few_products():
    ring = GaloisFieldRing(2, 8, default_irreducible(2, 8))
    calls = counting(ring)
    assert len(jacobson_radical(ring)) == 1
    assert calls[0] <= 1_500
    calls[0] = 0
    assert len(units(ring)) == 255
    assert calls[0] <= 4_000


def test_zero_divisors_of_a_product_take_few_products():
    factors = (ZmodRing(16), GaloisFieldRing(2, 4, default_irreducible(2, 4)))
    ring = ProductRing(factors)
    calls = counting(ring, *factors)
    assert len(zero_divisors(ring)) == 256 - 8 * 15
    assert calls[0] <= 1_000


def test_quotient_of_zmod_2048_builds_in_few_kernel_calls():
    parent = ZmodRing(2048)
    calls = counting(parent, kernels=KERNELS)
    quo = derived_ring(parent, QuotientRing, ["2"])
    assert calls[0] <= 20_000
    assert quo.ideal.members == frozenset(range(0, 2048, 2))
    assert quo.values() == [0, 1]


def test_units_of_a_quotient_of_zmod_4096_take_few_kernel_calls():
    parent = ZmodRing(4096)
    calls = counting(parent, kernels=KERNELS)
    quo = derived_ring(parent, QuotientRing, ["2048"])
    assert quo.card == 2048
    assert units(quo).vals == tuple(range(1, 2048, 2))
    assert len(nonunits(quo)) == 1024
    assert calls[0] <= 20_000
    for v in (3, 5, 2047):
        assert quo.is_unit_v(v) == pow(v, -1, 2048)


def test_subring_of_a_truncated_model_is_refused_before_any_product():
    parent = TruncSeriesRing(ZmodRing(2), 40)
    calls = counting(parent, kernels=KERNELS)
    with pytest.raises(RingConstructionError):
        derived_ring(parent, SubRing, ["[0,1]"])
    assert calls[0] == 0


CAP_SIZE_RINGS = [
    # fresh instances, and the value whose power chain is counted: 2, the
    # field generator x (value 2), and (2,2)
    ("zmod:65536", lambda: ZmodRing(65536), 2),
    ("gf:2:16", lambda: GaloisFieldRing(2, 16, default_irreducible(2, 16)), 2),
    ("prod(zmod:256,zmod:256)", lambda: ProductRing((ZmodRing(256), ZmodRing(256))), (2, 2)),
]


@pytest.mark.parametrize("spec, build, a", CAP_SIZE_RINGS,
                         ids=[c[0] for c in CAP_SIZE_RINGS])
def test_exact_procedures_on_cap_size_rings_take_at_most_two_products_a_value(
        spec, build, a):
    # called in this order on one instance, each call is charged only the
    # products it adds to what the calls before it computed
    ring = build()
    calls, n = counting(ring), ring.card
    procedures = [
        ("units", lambda: units(ring)),
        ("nilpotent_values", lambda: nilpotent_values(ring)),
        ("idempotents", lambda: idempotents(ring)),
        ("is_reduced", lambda: is_reduced(ring)),
        ("is_domain", lambda: is_domain(ring)),
        ("zero_keys", lambda: zero_keys(ring)),
        ("is_archimedean.right", lambda: is_archimedean(ring, "right")),
        ("is_archimedean.left", lambda: is_archimedean(ring, "left")),
        ("principal_power_chain", lambda: principal_power_chain(ring, ring.element(a))),
    ]
    taken = {}
    for name, call in procedures:
        calls[0] = 0
        call()
        taken[name] = calls[0]
    assert all(c <= 2 * n for c in taken.values()), taken
    # the two sides are one search, run once per ring
    assert taken["is_archimedean.left"] == 0
    assert taken["nilpotent_values"] + taken["idempotents"] == n
    calls[0] = 0
    assert principal_power_chain(ring, ring.one)[1].members == set(ring.values())
    unit = next(v for v in ring.values() if v != ring.one_v and ring.has_inverse_v(v))
    chain, _ = principal_power_chain(ring, ring.element(unit))
    assert len(chain) == 1 and calls[0] == 0
    if spec == "zmod:65536":
        assert taken["principal_power_chain"] == 2 * n - 1


# ---------------------------------------------------------------------------
# cost guards on the scans that remain


def test_sandwich_clause_past_its_budget_raises_at_once():
    with pytest.raises(NonEnumerableError):
        sandwich_unit_clause(construct_ring("zmod:256"))
