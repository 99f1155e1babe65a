"""The structural rules for units, nilpotence, zero-divisors, the
radical, domains, zero patterns and the Archimedean property on finite
rings, checked against the brute-force scans they replace (in
tests/oracles.py), plus kernel-call bounds and the cost guards of the
scans that remain."""

import operator

from hypothesis import given, strategies as st

import pytest

from oracles import (oracle_archimedean, oracle_closure, oracle_domain_witness,
                     oracle_idempotents, oracle_nilpotence, oracle_power_chain,
                     oracle_radical, oracle_regular, oracle_unit_map, oracle_zero_divisors)

from skewarch.props import (is_archimedean, sandwich_unit_clause,
                            von_neumann_regular)
from skewarch.rings import (
    GaloisFieldRing,
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
# each rule against its brute-force scan in tests/oracles.py


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
    want = oracle_idempotents(ring)
    assert idempotents(ring).vals == tuple(v for v in ring.values() if v in want)


def check_power_chain(ring):
    """Each set built from the one before it is the set built from every
    value, in value order."""
    vals = ring.values()
    for v in vals:
        chain, stab = principal_power_chain(ring, ring.element(v))
        want = oracle_power_chain(ring, v, "left")
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
