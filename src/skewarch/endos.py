"""Ring endomorphisms used as twists for skew polynomials and series.

The built-in twists are endomorphisms by construction, once their ring
kind fits: the identity, Frobenius a -> a^p on gf:p:k, the diagonal
(a, b) -> (a, a) on prod(S,S) and x -> x^2 on the two-variable model;
tests/test_ring_laws.py checks their laws.  A table twist comes from a
file, so build_endo checks its laws: it must fix 1 and respect + and *
on every pair of values up to ENDO_PAIR_BUDGET pairs, else on seeded
sampled pairs.  Rejection carries a witness pair.

The predicates follow one scan rule (rings.scan_domain): a finite ring
scans every value in the ring itself; a truncated model scans its scope
values (support <= the ring's bounded support) lifted into the 2x widened
copy, and evaluates every product and image there, so a reported zero or
collision is never a truncation artifact.  Scope results carry
exact=False and a note naming the support bound.

is_rigid and is_compatible only ask whether a product is zero.  Where the
ring has a zero pattern (rings.zero_pattern: a finite reduced commutative
ring, or the widened F[[x,y]]/(xy)), each scanned value and twist image
gets its mask once per scan and a pair is zero iff the masks are
disjoint; on other rings the pair is multiplied, in the same loop and
order, so the witnesses are the same either way.  Two predicates bend the
rule: is_compatible shrinks the scope support until at most
PAIR_SCAN_BUDGET pairs remain, and preserves_nonunits tests units in the
ring itself, because a truncated model computes the constant term, and so
the unit test, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .prng import CONSTRUCTION_SEED, SplitMix64, fnv1a64
from .rings import Element, is_reduced, memo, scan_domain, zero_keys

ENDO_PAIR_BUDGET = 65_536     # table-twist law check on every pair up to this
ENDO_SAMPLE_PAIRS = 10_000
PAIR_SCAN_BUDGET = 40_000     # quadratic scope scans shrink support to fit


class EndoValidationError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness or {}


class Endo:
    """A ring endomorphism with cached powers: a built-in map whose ring
    kind fits, or a table read from a file whose laws build_endo has
    checked."""

    def __init__(self, ring, name: str):
        self.ring = ring
        self.name = name
        self.text = "endo:" + name
        self.is_identity = name == "id"
        self._power_maps = None
        self._cache = {}

    def __eq__(self, other):
        return (isinstance(other, Endo) and other.ring == self.ring
                and other.text == self.text)

    def __hash__(self):
        return hash((self.ring.spec_text, self.text))

    def __repr__(self):
        return "<%s on %s>" % (self.text, self.ring.spec_text)

    def apply_v(self, v):
        raise NotImplementedError

    def power_apply_v(self, t: int, v):
        """Apply the t-th power of the map: one value map per power, built
        on first use and kept.  Only finite rings get here; the twists a
        truncated model accepts (the identity, endo:xsq) skip the maps."""
        if t == 0 or self.is_identity:
            return v
        if self._power_maps is None:
            base = {a: self.apply_v(a) for a in self.ring.values()}
            self._power_maps = [base]
        while len(self._power_maps) < t:
            last = self._power_maps[-1]
            base = self._power_maps[0]
            self._power_maps.append({a: base[b] for a, b in last.items()})
        return self._power_maps[t - 1][v]

    def apply(self, e: Element) -> Element:
        return Element(self.ring, self.apply_v(e.v))

    def on_widened(self, wide_ring):
        """The same structural rule on a widened copy of a truncated ring."""
        raise EndoValidationError("%s cannot be widened" % self.text)

    def degree_bound(self, t: int, dx: int, dy: int):
        """Degree bounds (x-part, y-part) of a value with bounds (dx, dy)
        after t applications of the map; None when the growth is
        unknown."""
        return (dx, dy) if t == 0 else None


class IdentityEndo(Endo):
    def __init__(self, ring):
        super().__init__(ring, "id")

    def apply_v(self, v):
        return v

    def on_widened(self, wide_ring):
        return IdentityEndo(wide_ring)

    def degree_bound(self, t: int, dx: int, dy: int):
        return dx, dy


class FrobeniusEndo(Endo):
    """a -> a^p on GF(p^k)."""

    def __init__(self, ring):
        if ring.kind != "gf":
            raise EndoValidationError("endo:frob needs a gf ring, got %s"
                                      % ring.spec_text)
        super().__init__(ring, "frob")

    def apply_v(self, v):
        return self.ring.k_pow(v, self.ring.p)


class DiagonalEndo(Endo):
    """(a, b) -> (a, a) on a square product of two identical factors."""

    def __init__(self, ring):
        if (ring.kind != "prod" or len(ring.factors) != 2
                or ring.factors[0].spec_text != ring.factors[1].spec_text):
            raise EndoValidationError("endo:diag needs prod(S,S), got %s"
                                      % ring.spec_text)
        super().__init__(ring, "diag")

    def apply_v(self, v):
        return (v[0], v[0])


class SquareVariableEndo(Endo):
    """x -> x^2, y -> y, constants fixed, on the two-variable quotient:
    x^i -> x^(2i) on the x-series of a value, its y-series kept.  Degrees
    that double past the precision are truncated away; the result is
    still an endomorphism of the truncated model."""

    def __init__(self, ring):
        if ring.kind != "xyq":
            raise EndoValidationError("endo:xsq needs an xyq ring, got %s"
                                      % ring.spec_text)
        super().__init__(ring, "xsq")

    def apply_v(self, v):
        return self.power_apply_v(1, v)

    def power_apply_v(self, t: int, v):
        if t == 0:
            return v
        # x^i -> x^(i*2^t) on the x-series; degrees past N drop away
        N, shift = self.ring.precision, 1 << t
        xs = [self.ring.field.zero_v] * (N + 1)
        xs[::shift] = v[0][:N // shift + 1]
        return tuple(xs), v[1]

    def on_widened(self, wide_ring):
        return SquareVariableEndo(wide_ring)

    def degree_bound(self, t: int, dx: int, dy: int):
        return dx << t, dy


class TableEndo(Endo):
    """Full association table read from a file of "src -> dst" lines."""

    def __init__(self, ring, path: str):
        if ring.truncated:
            raise EndoValidationError("endo:table needs a finite ring")
        super().__init__(ring, "table:" + path)
        table = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "->" not in line:
                    raise EndoValidationError("bad table line %r" % line)
                src, dst = line.split("->", 1)
                table[ring.v_of_text(src.strip())] = ring.v_of_text(dst.strip())
        missing = [v for v in ring.values() if v not in table]
        if missing:
            raise EndoValidationError("table leaves %d elements unmapped"
                                      % len(missing))
        self.table = table

    def apply_v(self, v):
        return self.table[v]


def _validate_endo(endo: Endo):
    """Check that a table twist fixes 1 and respects + and * on every pair
    of values while there are at most ENDO_PAIR_BUDGET pairs, else on
    ENDO_SAMPLE_PAIRS seeded draws.  Table twists exist only on finite
    rings.  Raises EndoValidationError with the failing law and pair."""
    ring = endo.ring
    if endo.apply_v(ring.one_v) != ring.one_v:
        raise EndoValidationError(
            "%s on %s does not fix 1" % (endo.text, ring.spec_text),
            {"law": "unity"})

    def check_pair(a, b):
        la = endo.apply_v(a)
        lb = endo.apply_v(b)
        s = endo.apply_v(ring.k_add(a, b))
        if s != ring.k_add(la, lb):
            raise EndoValidationError(
                "%s on %s is not additive" % (endo.text, ring.spec_text),
                {"law": "+", "a": ring.text_of_v(a), "b": ring.text_of_v(b),
                 "image_of_sum": ring.text_of_v(s),
                 "sum_of_images": ring.text_of_v(ring.k_add(la, lb))})
        m = endo.apply_v(ring.k_mul(a, b))
        if m != ring.k_mul(la, lb):
            raise EndoValidationError(
                "%s on %s is not multiplicative" % (endo.text, ring.spec_text),
                {"law": "*", "a": ring.text_of_v(a), "b": ring.text_of_v(b),
                 "image_of_product": ring.text_of_v(m),
                 "product_of_images": ring.text_of_v(ring.k_mul(la, lb))})

    vals = ring.values()
    n = len(vals)
    if n * n <= ENDO_PAIR_BUDGET:
        for a in vals:
            for b in vals:
                check_pair(a, b)
        return
    rng = SplitMix64(CONSTRUCTION_SEED ^ fnv1a64(ring.spec_text + "/" + endo.text))
    for _ in range(ENDO_SAMPLE_PAIRS):
        check_pair(vals[rng.below(n)], vals[rng.below(n)])


_ENDO_CACHE: dict = {}


def build_endo(ring, text: str) -> Endo:
    """Parse endo:id | endo:frob | endo:xsq | endo:diag | endo:table:<file>
    against a ring.  A built-in twist checks only that the ring has its
    kind; a table twist is checked against the homomorphism laws."""
    s = text.strip()
    cached = _ENDO_CACHE.get((ring.spec_text, s))
    if cached is not None:
        return cached
    if not s.startswith("endo:"):
        raise EndoValidationError("endo spec must start with 'endo:': %r" % text)
    body = s[5:]
    if body.startswith("table:"):
        endo = TableEndo(ring, body[6:])
        _validate_endo(endo)
        return endo     # not cached: table files can change on disk
    if body == "id":
        endo = IdentityEndo(ring)
    elif body == "frob":
        endo = FrobeniusEndo(ring)
    elif body == "diag":
        endo = DiagonalEndo(ring)
    elif body == "xsq":
        endo = SquareVariableEndo(ring)
    else:
        raise EndoValidationError("unrecognized endo spec: %r" % text)
    _ENDO_CACHE[(ring.spec_text, s)] = endo
    return endo


# ---------------------------------------------------------------------------
# predicates


@dataclass(frozen=True)
class EndoVerdict:
    holds: bool
    witness: Optional[dict]
    exact: bool
    note: str


def _twist_on(endo: Endo, dom):
    """The twist acting on the ring where the scan domain takes products."""
    return endo if dom.exact else endo.on_widened(dom.ring)


@memo
def is_injective(endo: Endo) -> EndoVerdict:
    ring = endo.ring
    dom = scan_domain(ring)
    apply = _twist_on(endo, dom).apply_v
    seen = {}
    for a, la in zip(dom.values, dom.lifted):
        img = apply(la)
        if img in seen:
            return EndoVerdict(False,
                               {"a": ring.text_of_v(seen[img]),
                                "b": ring.text_of_v(a),
                                "image": dom.ring.text_of_v(img)},
                               dom.exact, "image collision" if dom.exact
                               else "image collision at scope")
        seen[img] = a
    return EndoVerdict(True, None, dom.exact, dom.note("image scan"))


@memo
def is_rigid(endo: Endo) -> EndoVerdict:
    """No nonzero a with a * endo(a) = 0."""
    ring = endo.ring
    dom = scan_domain(ring)
    apply = _twist_on(endo, dom).apply_v
    key, times, kz = zero_keys(dom.ring)
    wz = dom.ring.zero_v
    for a, la in zip(dom.values, dom.lifted):
        if la != wz and times(key(la), key(apply(la))) == kz:
            return EndoVerdict(False, {"a": ring.text_of_v(a)}, dom.exact,
                               "a*alpha(a) = 0 with a != 0" if dom.exact
                               else "a*alpha(a) = 0 in the widened model")
    return EndoVerdict(True, None, dom.exact, dom.note("scan of a*alpha(a)"))


@memo
def is_compatible(endo: Endo) -> EndoVerdict:
    """a*b = 0 iff a*endo(b) = 0, over all (scope) pairs."""
    ring = endo.ring
    dom = scan_domain(ring)
    # quadratic scan: scope support shrinks until the pairs fit the budget
    while not dom.exact and dom.support > 1 and dom.size ** 2 > PAIR_SCAN_BUDGET:
        dom = scan_domain(ring, dom.support - 1)
    apply = _twist_on(endo, dom).apply_v
    key, times, kz = zero_keys(dom.ring)
    keys = [key(lb) for lb in dom.lifted]
    images = [key(apply(lb)) for lb in dom.lifted]
    for a, ka in zip(dom.values, keys):
        for b, kb, ki in zip(dom.values, keys, images):
            plain = times(ka, kb) == kz
            if plain != (times(ka, ki) == kz):
                direction = ("a*b = 0 but a*alpha(b) != 0" if plain
                             else "a*alpha(b) = 0 but a*b != 0")
                return EndoVerdict(False,
                                   {"a": ring.text_of_v(a),
                                    "b": ring.text_of_v(b),
                                    "direction": direction},
                                   dom.exact, direction)
    return EndoVerdict(True, None, dom.exact, dom.note("pair scan"))


@memo
def preserves_nonunits(endo: Endo) -> EndoVerdict:
    """Images of nonunits stay nonunits.  Scans the domain's values in the
    ring itself: a truncated model decides units by the constant term,
    which it computes exactly."""
    ring = endo.ring
    dom = scan_domain(ring)
    for a in dom.values:
        if not ring.has_inverse_v(a) and ring.has_inverse_v(endo.apply_v(a)):
            return EndoVerdict(False,
                               {"a": ring.text_of_v(a),
                                "image": ring.text_of_v(endo.apply_v(a))},
                               dom.exact, "nonunit mapped to a unit"
                               if dom.exact else
                               "nonunit mapped to a unit at scope")
    return EndoVerdict(True, None, dom.exact, dom.note("nonunit scan"))


def rigid_decomposition_check(endo: Endo) -> dict:
    """Rigid iff compatible and the ring is reduced; returns the three
    verdicts plus whether the biconditional held on this instance."""
    rigid = is_rigid(endo)
    compat = is_compatible(endo)
    reduced = is_reduced(endo.ring)
    agrees = rigid.holds == (compat.holds and reduced.reduced)
    return {
        "rigid": rigid,
        "compatible": compat,
        "reduced": reduced,
        "biconditional_holds": agrees,
        "exact": rigid.exact and compat.exact and reduced.exact,
    }
