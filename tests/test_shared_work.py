"""Work that several checks share is done once, and the order in which
the checks run cannot change a report.

The ring-law loop takes each distinct product once; the two sides of
the two-variable derivation share one run of its scans; cor-3-2 and
thm-3-3 share one polynomial zero-divisor probe.  Exact kernel counts
guard the first two, and object identity with a sampler that may not
draw guards the third.  The next test runs the seed-42 matrix
backwards from empty construction caches, so each shared result is
filled by a different cell than in the forward run, and compares every
report.  The three scans that keep per-call product memos are checked
against their loops with every product taken afresh, the oracles in
tests/oracles.py, by the table of tests/test_fast_paths.py."""

from types import SimpleNamespace

import pytest

from oracles import fresh_xyq

from skewarch import props, rings, suites
from skewarch.endos import IdentityEndo, build_endo
from skewarch.props import derived_archimedean, poly_radical_check, poly_zero_divisor_probe
from skewarch.registry import ENTRIES, RunConfig
from skewarch.rings import XYQuotientRing, ZmodRing
from skewarch.suites import SUITE_IDS, run_one


class LoopEnded(Exception):
    pass


def test_the_law_loop_takes_981_distinct_products(monkeypatch):
    # the loop ends where the twist law builds its variable; 10 scope
    # draws give |tri|^2 table products and 4 per triple, 4,100 in all,
    # of which 981 are distinct
    ring = fresh_xyq()
    mul, calls = ring.k_mul, []
    ring.k_mul = lambda x, y: calls.append((x, y)) or mul(x, y)

    def variable(*args):
        raise LoopEnded

    monkeypatch.setattr(suites.SkewPoly, "variable", variable)
    entry = SimpleNamespace(id="xyq:gf:2:1:N=8")
    with pytest.raises(LoopEnded):
        suites._suite_arithmetic(entry, ring, IdentityEndo(ring),
                                 RunConfig(seed=42).validated())
    assert len(calls) == len(set(calls)) == 981


def test_the_left_derivation_reuses_the_right_scans(monkeypatch):
    ring = fresh_xyq()
    right = derived_archimedean(ring, "right")
    calls = []
    mul = XYQuotientRing.k_mul
    monkeypatch.setattr(XYQuotientRing, "k_mul",
                        lambda self, x, y: calls.append(1) or mul(self, x, y))
    left = derived_archimedean(ring, "left")
    assert calls == []
    steps = right.witness["derivation"]
    assert len(steps) == 6
    assert left.witness["derivation"] == [s.replace("right", "left") for s in steps]
    assert (left.status, left.certificate) == (right.status, right.certificate)


def test_cor_3_2_and_thm_3_3_share_one_probe(monkeypatch):
    ring, seed = ZmodRing(8), 42
    drawn, seen = [], []
    sample = props._draw_terms
    monkeypatch.setattr(props, "_draw_terms",
                        lambda *a, **k: drawn.append(1) or sample(*a, **k))
    monkeypatch.setattr(props, "poly_zero_divisor_probe",
                        lambda *a: seen.append(poly_zero_divisor_probe(*a)) or seen[-1])
    poly_radical_check(ring, "right", 2000, seed)
    assert drawn and len(seen) == 1 and seen[0] is not None
    drawn.clear()
    again = poly_zero_divisor_probe(ring, build_endo(ring, "endo:id"), "right",
                                    samples=2000, seed=seed)
    assert drawn == [] and again is seen[0]


def test_memo_warmth_cannot_change_a_report(seed42_matrix, monkeypatch):
    # reversed, thm-3-4 fills each shared result before thm-3-3, and
    # thm-3-3 before cor-3-2
    monkeypatch.setattr(rings, "_RING_CACHE", {})
    config = RunConfig(seed=42).validated()
    cells = [(entry, suite_id) for entry in ENTRIES for suite_id in SUITE_IDS]
    assert len(cells) == len(seed42_matrix.reports) == 198
    backward = [run_one(entry, suite_id, config) for entry, suite_id in reversed(cells)]
    assert backward[::-1] == seed42_matrix.reports
