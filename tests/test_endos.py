import itertools
import json
import random
import time

import pytest

from oracles import oracle_endomorphism
from test_structural_rules import CARDS

from skewarch import endos, props, rings
from skewarch.endos import (
    EndoValidationError,
    build_endo,
    is_compatible,
    is_injective,
    is_rigid,
    preserves_nonunits,
    rigid_decomposition_check,
)
from skewarch.props import poly_zero_divisor_probe
from skewarch.registry import RegistryEntry, RunConfig
from skewarch.rings import (UNIT_PAIR_BUDGET, NonEnumerableError, ZmodRing,
                            construct_ring)
from skewarch.skew import parse_poly_text
from skewarch.suites import SUITE_IDS, run_one


def _gf4():
    return construct_ring("gf:2:2")


# ---------------------------------------------------------------------------
# frobenius


def test_frobenius_is_the_squaring_map():
    ring = _gf4()
    fr = build_endo(ring, "endo:frob")
    for e in ring.elements():
        assert fr.apply(e) == e * e
    # frob^2 = identity on a 4 element field
    for e in ring.elements():
        assert ring.element(fr.power_apply_v(2, e.v)) == e


def test_a_frobenius_table_on_gf_2_9_is_law_checked_within_10_seconds(tmp_path):
    # a table of the Frobenius images on GF(2^9): its laws are checked on
    # 512 values times 9 additive generators, not on 512^2 pairs
    ring = construct_ring("gf:2:9")
    f = tmp_path / "frob.map"
    _write_table(f, [(e.text, (e * e).text) for e in ring.elements()])
    start = time.perf_counter()
    fr = build_endo(ring, "endo:table:%s" % f)
    assert time.perf_counter() - start < 10
    x = ring.from_text("[0,1,0,0,0,0,0,0,0]")
    assert fr.apply(x) == x * x


def test_only_table_twists_run_the_law_check(monkeypatch, tmp_path):
    def refuse(endo):
        raise EndoValidationError("law check ran")
    monkeypatch.setattr(endos, "_validate_endo", refuse)
    monkeypatch.setattr(rings, "_RING_CACHE", {})
    for spec, twist in [("zmod:10", "endo:id"), ("gf:7:1", "endo:frob"),
                        ("prod(zmod:2,zmod:2)", "endo:diag"),
                        ("xyq:gf:2:1:N=8", "endo:xsq")]:
        assert build_endo(construct_ring(spec), twist).text == twist
    f = tmp_path / "id.map"
    _write_table(f, [(str(a), str(a)) for a in range(4)])
    with pytest.raises(EndoValidationError):
        build_endo(construct_ring("zmod:4"), "endo:table:%s" % f)


def test_frobenius_predicates_on_gf4():
    fr = build_endo(_gf4(), "endo:frob")
    assert is_injective(fr).holds and is_injective(fr).exact
    assert is_rigid(fr).holds
    assert is_compatible(fr).holds
    assert preserves_nonunits(fr).holds


def test_frobenius_needs_a_galois_field():
    with pytest.raises(EndoValidationError):
        build_endo(construct_ring("zmod:6"), "endo:frob")


# ---------------------------------------------------------------------------
# identity


def test_identity_rigid_iff_reduced():
    idz6 = build_endo(construct_ring("zmod:6"), "endo:id")
    assert idz6.is_identity
    assert is_rigid(idz6).holds

    idz8 = build_endo(construct_ring("zmod:8"), "endo:id")
    v = is_rigid(idz8)
    assert not v.holds
    assert v.witness == {"a": "4"}      # 4*4 = 0 mod 8 with 4 != 0


def test_identity_compatible_is_trivial():
    idz8 = build_endo(construct_ring("zmod:8"), "endo:id")
    assert is_compatible(idz8).holds


def _count_work(monkeypatch, bound):
    """On fresh rings, count each kernel call (k_add, k_mul, k_pow) and
    each pair test of zero_keys, and raise once the count passes bound."""
    monkeypatch.setattr(rings, "_RING_CACHE", {})
    count = [0]

    def counted(fn):
        def call(*args):
            count[0] += 1
            if count[0] > bound:
                raise RuntimeError("past %d counted calls" % bound)
            return fn(*args)
        return call

    for cls in vars(rings).values():
        if isinstance(cls, type) and issubclass(cls, rings.RingHandle):
            for op in ("k_add", "k_mul", "k_pow"):
                if op in vars(cls):
                    monkeypatch.setattr(cls, op, counted(vars(cls)[op]))
    zero_keys = rings.zero_keys

    def counted_zero_keys(ring):
        key, times, zero = zero_keys(ring)
        return key, counted(times), zero
    for module in (rings, endos, props):
        monkeypatch.setattr(module, "zero_keys", counted_zero_keys)
    return count


@pytest.mark.parametrize("spec,twist,suite_id,refuses", [
    ("gf:2:16", "endo:frob", "classify", False),
    ("gf:2:16", "endo:frob", "lemma-4-2", False),
    ("zmod:65536", "endo:id", "classify", False),
    ("zmod:65536", "endo:id", "lemma-4-2", False),
    ("prod(zmod:256,zmod:256)", "endo:diag", "classify", True),
    ("prod(zmod:256,zmod:256)", "endo:diag", "lemma-4-2", True),
])
def test_compatibility_on_cap_size_rings_answers_or_refuses(
        monkeypatch, spec, twist, suite_id, refuses):
    # the identity and an injective twist of a field need no pair scan;
    # the diagonal twist's 65536^2 pairs are refused before the scan
    count = _count_work(monkeypatch, 2 * UNIT_PAIR_BUDGET)
    entry = RegistryEntry(spec + "+" + twist, spec, twist, "cap size")
    config = RunConfig(seed=42).validated()
    if refuses:
        with pytest.raises(NonEnumerableError, match="compatibility pair scan"):
            run_one(entry, suite_id, config)
    else:
        assert run_one(entry, suite_id, config)["suite"] == suite_id
    assert 0 < count[0] <= 2 * UNIT_PAIR_BUDGET


# ---------------------------------------------------------------------------
# projection onto the diagonal of a square product


def test_diagonal_projection_predicates():
    ring = construct_ring("prod(zmod:2,zmod:2)")
    dg = build_endo(ring, "endo:diag")
    assert dg.apply(ring.from_text("(1,0)")).text == "(1,1)"
    assert dg.apply(ring.from_text("(0,1)")).text == "(0,0)"
    inj = is_injective(dg)
    assert not inj.holds and inj.witness["b"] == "(0,1)"
    rg = is_rigid(dg)
    assert not rg.holds and rg.witness == {"a": "(0,1)"}
    assert not is_compatible(dg).holds
    # (0,1) is not a unit but maps to the zero of the diagonal copy... and
    # (1,0) maps to the unit (1,1): nonunits are not preserved
    assert not preserves_nonunits(dg).holds
    assert preserves_nonunits(dg).witness["a"] == "(1,0)"


def test_diagonal_needs_square_product():
    with pytest.raises(EndoValidationError):
        build_endo(construct_ring("prod(zmod:2,zmod:3)"), "endo:diag")
    with pytest.raises(EndoValidationError):
        build_endo(construct_ring("zmod:4"), "endo:diag")


# ---------------------------------------------------------------------------
# variable squaring on the two variable quotient model


def test_square_variable_action():
    ring = construct_ring("xyq:gf:2:1:N=8")
    xs = build_endo(ring, "endo:xsq")
    x = ring.element(ring.x_v(1))
    y = ring.element(ring.y_v(1))
    assert xs.apply(x).v == ring.x_v(2)
    assert xs.apply(y) == y
    assert ring.element(xs.power_apply_v(2, ring.x_v(1))).v == ring.x_v(4)
    # x^5 -> x^10 leaves the window in the model but not after widening
    assert xs.apply(ring.element(ring.x_v(5))).v == ring.zero_v


def test_square_variable_is_rigid_and_compatible():
    ring = construct_ring("xyq:gf:2:1:N=8")
    xs = build_endo(ring, "endo:xsq")
    assert is_rigid(xs).holds
    assert is_compatible(xs).holds
    assert is_injective(xs).holds       # scope-exact: widened before judging
    assert preserves_nonunits(xs).holds
    report = rigid_decomposition_check(xs)
    assert report["biconditional_holds"]
    assert not report["exact"]


def test_square_variable_needs_the_xy_model():
    with pytest.raises(EndoValidationError):
        build_endo(construct_ring("tser(gf:2:1,N=8)"), "endo:xsq")


def test_decomposition_fails_where_rigidity_fails():
    ring = construct_ring("prod(zmod:2,zmod:2)")
    report = rigid_decomposition_check(build_endo(ring, "endo:diag"))
    assert not report["rigid"].holds
    assert not report["compatible"].holds
    assert report["reduced"].reduced
    assert report["biconditional_holds"]    # not rigid, and not (compat and reduced)


# ---------------------------------------------------------------------------
# table-driven maps


def _write_table(path, pairs):
    path.write_text("# test table\n" + "\n".join("%s -> %s" % p for p in pairs))


def test_table_endo_accepts_a_genuine_endomorphism(tmp_path):
    ring = _gf4()
    fr = build_endo(ring, "endo:frob")
    f = tmp_path / "frob.map"
    _write_table(f, [(e.text, fr.apply(e).text) for e in ring.elements()])
    te = build_endo(ring, "endo:table:%s" % f)
    for e in ring.elements():
        assert te.apply(e) == fr.apply(e)


def test_table_endo_rejects_the_cube_map(tmp_path):
    # a -> a^3 fixes every element of GF(4)* but is not additive
    ring = _gf4()
    f = tmp_path / "cube.map"
    _write_table(f, [(e.text, (e ** 3).text) for e in ring.elements()])
    with pytest.raises(EndoValidationError) as err:
        build_endo(ring, "endo:table:%s" % f)
    assert err.value.witness["law"] == "+"
    assert err.value.witness["a"] == "[1,0]"
    assert err.value.witness["b"] == "[0,1]"
    assert err.value.witness["image_of_sum"] == "[1,0]"
    assert err.value.witness["sum_of_images"] == "[0,0]"


def test_table_endo_rejects_an_additive_map_that_is_not_multiplicative(tmp_path):
    # a + b*w -> a fixes 1 and is F2-linear, but w*w = w + 1 -> 1, not 0*0
    ring = _gf4()
    f = tmp_path / "constant-part.map"
    _write_table(f, [(e.text, ring.text_of_v(e.v % 2)) for e in ring.elements()])
    with pytest.raises(EndoValidationError) as err:
        build_endo(ring, "endo:table:%s" % f)
    assert err.value.witness == {"law": "*", "a": "[0,1]", "b": "[0,1]",
                                 "image_of_product": "[1,0]",
                                 "product_of_images": "[0,0]"}


def test_table_endo_rejects_a_non_additive_table_past_256_elements(tmp_path):
    # the identity of Z/65536 but 777 -> 778: not additive, and a check
    # on sampled pairs would almost surely miss the one moved value
    ring = construct_ring("zmod:65536")
    f = tmp_path / "moved.map"
    _write_table(f, [(a, 778 if a == 777 else a) for a in range(ring.card)])
    with pytest.raises(EndoValidationError) as err:
        build_endo(ring, "endo:table:%s" % f)
    # the first failing (value, generator) pair: 776 + 1 -> 778, not 777
    assert err.value.witness == {"law": "+", "a": "776", "b": "1",
                                 "image_of_sum": "778", "sum_of_images": "777"}


def _table_builds(ring, image):
    text = "\n".join("%s -> %s" % (ring.text_of_v(v), ring.text_of_v(image[v]))
                     for v in ring.values())
    try:
        endos.TableEndo(ring, "table:oracle", text)
    except EndoValidationError:
        return False
    return True


@pytest.mark.parametrize("spec, endomorphisms", [
    ("zmod:4", 1), ("gf:2:2", 2), ("prod(zmod:2,zmod:2)", 4)])
def test_the_law_check_accepts_every_map_the_all_pairs_oracle_accepts(spec, endomorphisms):
    # all 256 maps of a 4-element ring to itself
    ring = construct_ring(spec)
    vals = ring.values()
    accepted = 0
    for images in itertools.product(vals, repeat=len(vals)):
        image = dict(zip(vals, images))
        builds = _table_builds(ring, image)
        assert builds == oracle_endomorphism(ring, image), image
        accepted += builds
    assert accepted == endomorphisms


SMALL_SPECS = [s for s in CARDS if CARDS[s] <= 36] + [
    "prod(%s,%s)" % (a, b) for a in CARDS for b in CARDS
    if CARDS[a] <= CARDS[b] and CARDS[a] * CARDS[b] <= 36]


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_the_law_check_matches_the_oracle_on_moved_points_of_the_identity(spec):
    # seeded changes of one to three points of the identity, and the
    # identity itself
    ring = construct_ring(spec)
    vals = ring.values()
    rng = random.Random(spec)
    assert _table_builds(ring, dict(zip(vals, vals)))
    for _ in range(20):
        image = dict(zip(vals, vals))
        for _ in range(rng.randint(1, 3)):
            image[rng.choice(vals)] = rng.choice(vals)
        assert _table_builds(ring, image) == oracle_endomorphism(ring, image), image


def test_table_endo_names_a_path_it_cannot_read(tmp_path):
    ring = construct_ring("zmod:2")
    for path in (tmp_path / "missing.map", tmp_path):
        with pytest.raises(EndoValidationError,
                           match="^cannot read endo table %r: " % str(path)):
            build_endo(ring, "endo:table:%s" % path)


def test_table_endo_rejects_a_line_without_an_arrow(tmp_path):
    f = tmp_path / "arrowless.map"
    f.write_text("0 -> 0\n1 => 1\n")
    with pytest.raises(EndoValidationError) as err:
        build_endo(construct_ring("zmod:2"), "endo:table:%s" % f)
    assert str(err.value) == "bad table line '1 => 1'"


def test_table_endo_names_an_element_text_with_a_typo(tmp_path):
    f = tmp_path / "typo.map"
    _write_table(f, [("[0,0,0,0]", "[0,0,0,0]"), ("[1,x,0,0]", "[1,0,0,0]")])
    with pytest.raises(ValueError, match=r"^bad element '\[1,x,0,0\]' for gf:2:4:"):
        build_endo(construct_ring("gf:2:4"), "endo:table:%s" % f)


def test_table_endo_rejects_a_value_mapped_twice(tmp_path):
    # the second line for 1 would otherwise win and build the identity
    f = tmp_path / "twice.map"
    _write_table(f, [(0, 0), (1, 3), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(EndoValidationError) as err:
        build_endo(construct_ring("zmod:4"), "endo:table:%s" % f)
    assert str(err.value) == "table maps 1 twice"


def test_table_endo_rejects_incomplete_tables(tmp_path):
    ring = _gf4()
    f = tmp_path / "partial.map"
    _write_table(f, [("[0,0]", "[0,0]"), ("[1,0]", "[1,0]")])
    with pytest.raises(EndoValidationError):
        build_endo(ring, "endo:table:%s" % f)


def test_table_endo_must_fix_unity(tmp_path):
    ring = construct_ring("zmod:4")
    f = tmp_path / "zero.map"
    _write_table(f, [(str(a), "0") for a in range(4)])
    with pytest.raises(EndoValidationError) as err:
        build_endo(ring, "endo:table:%s" % f)
    assert err.value.witness == {"law": "unity"}


def test_table_endo_refuses_a_truncated_model(tmp_path):
    ring = construct_ring("tser(zmod:2,N=4)")
    f = tmp_path / "identity.map"
    _write_table(f, [(ring.text_of_v(v), ring.text_of_v(v))
                     for v in ring.scope_values()])
    with pytest.raises(EndoValidationError) as err:
        build_endo(ring, "endo:table:%s" % f)
    assert str(err.value) == "endo:table needs a finite ring"


def test_a_table_twist_samples_by_its_images_not_its_path(tmp_path):
    # the same swap table at two paths: every suite's report is the same
    # once the path is masked
    spec = "prod(gf:2:1,gf:2:1)"
    ring = construct_ring(spec)
    swap = [(ring.text_of_v(v), ring.text_of_v(v[::-1])) for v in ring.values()]
    config = RunConfig(seed=42, precision=8).validated()
    runs = []
    for folder in ("a", "bb"):
        path = tmp_path / folder / "swap.map"
        path.parent.mkdir()
        _write_table(path, swap)
        entry = RegistryEntry(spec + "+swap", spec, "endo:table:%s" % path, "test")
        assert entry.build()[1].stream_text == (
            "endo:table:([0],[0]),([1],[0]),([0],[1]),([1],[1])")
        runs.append([json.dumps(run_one(entry, suite_id, config))
                     .replace(str(path), "PATH") for suite_id in SUITE_IDS])
    assert len(runs[0]) == 18 and runs[0] == runs[1]


# ---------------------------------------------------------------------------
# one twist per ring and table content


SQUARE = "prod(gf:2:1,gf:2:1)"


def _table_of(ring, image):
    return [(ring.text_of_v(v), ring.text_of_v(image(v))) for v in ring.values()]


def _count_law_checks(monkeypatch):
    """Count _validate_endo calls, on fresh rings."""
    monkeypatch.setattr(rings, "_RING_CACHE", {})
    calls = []
    validate = endos._validate_endo
    monkeypatch.setattr(endos, "_validate_endo",
                        lambda endo: calls.append(endo) or validate(endo))
    return calls


def test_every_suite_of_a_table_twist_entry_checks_its_laws_once(monkeypatch, tmp_path):
    calls = _count_law_checks(monkeypatch)
    path = tmp_path / "swap.map"
    _write_table(path, _table_of(construct_ring(SQUARE), lambda v: v[::-1]))
    entry = RegistryEntry(SQUARE + "+swap", SQUARE, "endo:table:%s" % path, "test")
    config = RunConfig(seed=42, precision=8).validated()
    for suite_id in SUITE_IDS:
        run_one(entry, suite_id, config)
    assert len(calls) == 1


def test_a_rewritten_table_is_a_new_checked_twist(monkeypatch, tmp_path):
    calls = _count_law_checks(monkeypatch)
    ring = construct_ring(SQUARE)
    path = tmp_path / "twist.map"
    spec = "endo:table:%s" % path
    _write_table(path, _table_of(ring, lambda v: v))
    identity = build_endo(ring, spec)
    assert build_endo(ring, spec) is identity and len(calls) == 1
    assert is_rigid(identity).holds
    _write_table(path, _table_of(ring, lambda v: v[::-1]))
    swap = build_endo(ring, spec)
    assert swap is not identity and swap != identity and len(calls) == 2
    # a * swap(a) = (0,1) * (1,0) = 0: is_rigid was computed again
    assert is_rigid(swap).witness == {"a": "([0],[1])"}
    _write_table(path, _table_of(ring, lambda v: v))
    assert build_endo(ring, spec) is identity and len(calls) == 2


def test_a_broken_table_raises_on_every_build(monkeypatch, tmp_path):
    calls = _count_law_checks(monkeypatch)
    ring = construct_ring("zmod:4")
    path = tmp_path / "zero.map"
    _write_table(path, [(str(a), "0") for a in range(4)])
    for _ in range(2):
        with pytest.raises(EndoValidationError):
            build_endo(ring, "endo:table:%s" % path)
    assert len(calls) == 2


def test_one_table_at_two_paths_is_two_twists_each_checked_once(monkeypatch, tmp_path):
    calls = _count_law_checks(monkeypatch)
    ring = construct_ring(SQUARE)
    twists = []
    for name in ("a.map", "b.map"):
        _write_table(tmp_path / name, _table_of(ring, lambda v: v[::-1]))
        spec = "endo:table:%s" % (tmp_path / name)
        twists.append(build_endo(ring, spec))
        assert build_endo(ring, spec) is twists[-1]
    assert twists[0] != twists[1] and twists[0].stream_text == twists[1].stream_text
    assert len(calls) == 2


def test_a_rewritten_table_gets_its_own_zero_divisor_probe(tmp_path):
    """A twist-keyed ring memo must not hand the identity table's probe
    to the swap table later written to the same path."""
    ring = construct_ring(SQUARE)
    path = tmp_path / "rewritten.map"
    spec = "endo:table:%s" % path
    _write_table(path, _table_of(ring, lambda v: v))
    identity = build_endo(ring, spec)
    assert poly_zero_divisor_probe(ring, identity, "right", 2000, 0) is not None
    _write_table(path, _table_of(ring, lambda v: v[::-1]))
    swap = build_endo(ring, spec)
    pair = poly_zero_divisor_probe(ring, swap, "right", 2000, 0)
    f, b = parse_poly_text(pair["f"]), parse_poly_text(pair["b"])
    assert not f.is_zero and not b.is_zero and (b * f).is_zero
    assert swap != identity


# ---------------------------------------------------------------------------
# grammar


def test_unknown_endo_name_rejected():
    with pytest.raises(EndoValidationError):
        build_endo(construct_ring("zmod:6"), "endo:conjugate")
    with pytest.raises(EndoValidationError):
        build_endo(construct_ring("zmod:6"), "id")        # missing endo: head


def test_a_built_in_twist_is_kept_on_its_own_ring():
    cached = construct_ring("zmod:6")
    assert build_endo(cached, "endo:id").ring is cached
    fresh = ZmodRing(6)
    twist = build_endo(fresh, "endo:id")
    assert twist.ring is fresh and build_endo(fresh, " endo:id ") is twist


def test_endo_equality_and_text():
    r = construct_ring("zmod:6")
    assert build_endo(r, "endo:id") == build_endo(r, "endo:id")
    assert build_endo(r, "endo:id").text == "endo:id"
    fr = build_endo(_gf4(), "endo:frob")
    assert fr.text == "endo:frob"
    assert fr != build_endo(_gf4(), "endo:id")
