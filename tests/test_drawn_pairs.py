"""Every suite on drawn (ring, twist) pairs off the registry.

Off the registry a "fails" from any suite but falsify contradicts a
published statement, so it is a bug in the checker.  Each drawn pair
runs all 18 suites: every report must pass `validate_report`, none may
contradict the predictions (the CLI's exit-0 condition), and nothing
may raise but a documented NonEnumerableError.  Twists are the
built-ins of each ring kind and table twists written to a temporary
directory: a power of Frobenius, the coordinate swap and the collapse
(a, b) -> (b, b) of a square product.  The sweep of every ring of at
most 256 elements also pins its report bytes: sweep_digests.json holds
one sha256 per spec over the reports of all its twists."""

import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_ring_laws import tser_rings, xyq_rings
from test_structural_rules import CARDS, base_specs, finite_rings

from skewarch.props import FAILS
from skewarch.registry import RunConfig, _entry
from skewarch.reports import render_json, validate_report
from skewarch.rings import NonEnumerableError, construct_ring
from skewarch.suites import SUITE_IDS, report_contradicts_predictions, run_one


def twist_tables(ring):
    """The built-in twist specs of the ring's kind, and the text of each
    of its table twists, by name."""
    specs = ["endo:id"]
    images = {}
    if ring.kind == "gf" and ring.k >= 2:
        specs.append("endo:frob")
        q = ring.p ** (ring.k - 1)
        images["frob-power"] = lambda v: ring.k_pow(v, q)
    elif ring.kind == "prod" and ring.factors[0] == ring.factors[1]:
        specs.append("endo:diag")
        images["swap"] = lambda v: (v[1], v[0])
        images["collapse"] = lambda v: (v[1], v[1])
    elif ring.kind == "xyq":
        specs.append("endo:xsq")
    return specs, {name: "".join("%s -> %s\n" % (ring.text_of_v(v), ring.text_of_v(image(v)))
                                 for v in ring.values())
                   for name, image in images.items()}


def twist_specs(ring, table_dir):
    """The identity, the built-in twist of the ring's kind, and its table
    twists, written to `table_dir`."""
    specs, tables = twist_tables(ring)
    stem = hashlib.sha256(ring.spec_text.encode()).hexdigest()[:16]
    for name, text in tables.items():
        path = table_dir / ("%s-%s.txt" % (stem, name))
        path.write_text(text)
        specs.append("endo:table:%s" % path)
    return specs


# finite rings of at most 64 elements, with extra weight on the kinds
# that carry a twist other than the identity, and the truncated models.
# The series rings are drawn up to 4,096 scope values (tser(gf:2:3,N=6)):
# over a field, is_domain answers without a pair scan, and over any other
# base the scan meets a zero product early.
galois_fields = st.sampled_from([s for s in CARDS if s.startswith("gf:")
                                 and not s.endswith(":1")]).map(construct_ring)
square_products = base_specs(8).map(lambda s: construct_ring("prod(%s,%s)" % (s, s)))
drawn_rings = st.one_of(finite_rings, galois_fields, square_products, tser_rings,
                        xyq_rings)


def run_pair(entry, config):
    """All suites on one pair, skipping a suite that stops at its budget."""
    reports = []
    for suite_id in SUITE_IDS:
        try:
            reports.append(run_one(entry, suite_id, config))
        except NonEnumerableError:
            continue
    return reports


def check_reports(entry, reports):
    for report in reports:
        validate_report(report)
        assert not report_contradicts_predictions(entry, report), report


@settings(max_examples=10)
@given(data=st.data(), seed=st.integers(0, 2 ** 64 - 1),
       precision=st.integers(2, 6), depth=st.integers(1, 5),
       budget=st.sampled_from([1, 50, 10_000]))
def test_every_suite_holds_on_drawn_pairs(tmp_path_factory, data, seed, precision,
                                          depth, budget):
    ring = data.draw(drawn_rings)
    twist = data.draw(st.sampled_from(twist_specs(ring, tmp_path_factory.getbasetemp())))
    entry = _entry(ring.spec_text, twist, "drawn")
    config = RunConfig(seed=seed, precision=precision, depth=depth,
                       budget=budget).validated()
    check_reports(entry, run_pair(entry, config))


# one fixed pair or more of each ring kind and each twist above
FIXED_SPECS = ["zmod:9", "zmod:10", "gf:3:2", "gf:2:3", "prod(zmod:3,zmod:3)",
               "prod(zmod:4,zmod:2)", "quot(zmod:12;4)", "sub(prod(zmod:2,zmod:2);(1,0))",
               "tser(zmod:4,N=3)", "xyq:gf:3:1:N=4"]
FIXED_CONFIG = RunConfig(seed=7, precision=4, depth=3).validated()


@pytest.fixture(scope="module")
def fixed_pairs(tmp_path_factory):
    """The fixed pairs' entries and their serial reports."""
    table_dir = tmp_path_factory.mktemp("tables")
    entries = [_entry(spec, twist, "drawn") for spec in FIXED_SPECS
               for twist in twist_specs(construct_ring(spec), table_dir)]
    return entries, [run_pair(entry, FIXED_CONFIG) for entry in entries]


def test_every_suite_holds_on_fixed_pairs(fixed_pairs):
    for entry, reports in zip(*fixed_pairs):
        check_reports(entry, reports)


def test_a_falsifier_chain_outside_the_registry_contradicts_nothing():
    """zmod:10 is reduced and not Archimedean: falsify fails on it, and no
    series prediction says otherwise."""
    entry = _entry("zmod:10", "endo:id", "drawn")
    report = run_one(entry, "falsify", RunConfig(seed=42))
    assert report["status"] == FAILS
    assert report_contradicts_predictions(entry, report) is False


@pytest.mark.parametrize("suite_id,side", [("thm-3-3", "right"), ("thm-3-4", "left")])
def test_a_theorem_certificate_counts_the_pairs_its_probe_drew(suite_id, side):
    """A truncated model draws a twentieth of the 2,000 samples."""
    entry = _entry("tser(gf:2:1,N=4)", "endo:id", "drawn")
    report = run_one(entry, suite_id, RunConfig(seed=42))
    assert report["certificate"] == (
        "coefficient conditions verified at scope; %s zero-divisor probe found "
        "nothing in 100 samples" % side)


def test_fixed_pairs_give_the_same_bytes_in_a_process_pool(fixed_pairs):
    """A spawned pool rebuilds each pair's ring and twist from its entry
    alone."""
    entries, serial = fixed_pairs
    tasks = [(e, r["suite"]) for e, reports in zip(entries, serial) for r in reports]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        pooled = list(pool.map(run_one, *zip(*tasks), [FIXED_CONFIG] * len(tasks)))
    assert render_json(pooled, FIXED_CONFIG) == \
        render_json([r for reports in serial for r in reports], FIXED_CONFIG)


def sweep_specs(max_card):
    """Every zmod and gf spec of at most max_card elements, and every
    unordered product of two of them that fits."""
    primes = [p for p in range(2, max_card + 1) if all(p % d for d in range(2, p))]
    cards = {**{"zmod:%d" % n: n for n in range(2, max_card + 1)},
             **{"gf:%d:%d" % (p, k): p ** k for p in primes
                for k in range(1, max_card.bit_length()) if p ** k <= max_card}}
    bases = sorted(cards, key=lambda s: (cards[s], s))
    return bases + ["prod(%s,%s)" % (a, b) for i, a in enumerate(bases)
                    for b in bases[i:] if cards[a] * cards[b] <= max_card]


SWEEP_CONFIG = RunConfig(seed=42, precision=8).validated()
SWEEP_DIGESTS = json.loads(Path(__file__).with_name("sweep_digests.json").read_text())


def sweep_digest(spec, table_dir):
    """Check every suite on every twist of spec, and return the sha256 of
    all their reports, in twist order, with table_dir masked out."""
    reports = []
    for twist in twist_specs(construct_ring(spec), table_dir):
        entry = _entry(spec, twist, "drawn")
        pair = run_pair(entry, SWEEP_CONFIG)
        check_reports(entry, pair)
        reports += pair
    text = render_json(reports, SWEEP_CONFIG).replace(str(table_dir), "TABLES")
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_sweep_digests_name_every_sweep_spec_in_order():
    assert list(SWEEP_DIGESTS) == sweep_specs(256)


@pytest.mark.parametrize("spec", sweep_specs(256)[::25])
def test_every_25th_sweep_spec_gives_its_pinned_bytes(tmp_path, spec):
    """A sample of the sweep below, in every run: a change to a table
    twist, a zero test or lemma-4-3's scan that moves a witness shows
    here without -m slow."""
    assert sweep_digest(spec, tmp_path) == SWEEP_DIGESTS[spec]


@pytest.mark.slow
@pytest.mark.parametrize("spec", sweep_specs(256))
def test_every_suite_holds_on_every_ring_of_at_most_256_elements(tmp_path, spec):
    assert sweep_digest(spec, tmp_path) == SWEEP_DIGESTS[spec]
