"""Ring endomorphisms used as twists for skew polynomials and series.

The built-in twists are endomorphisms by construction, once their ring
kind fits: the identity, Frobenius a -> a^p on gf:p:k, the diagonal
(a, b) -> (a, a) on prod(S,S) and x -> x^2 on the two-variable model;
tests/test_ring_laws.py checks their laws.  A table twist comes from a
file, so its constructor checks that it fixes 1 and respects + and * on
every pair (a, g) of a value and a member of an additive generating set
of at most log2 |R| values, which is exact at every ring size and draws
no random number; rejection carries a witness pair.  build_twist builds
each twist once per ring object, name and table text, and build_endo
reads a table's file on every call, so a rewritten file gives a new,
checked twist.  Twists are equal when their ring, text and stream_text
are.  stream_text names a table by its images in value order, so the
streams of sampled checks, keyed by it, ignore the path, and memos
keyed by a twist never mix two tables written to one path.

The predicates follow one scan rule (rings.scan_domain): a finite ring
scans every value in the ring itself; a truncated model scans its scope
values (support <= the ring's bounded support) lifted into the 2x widened
copy, and evaluates every product and image there, so a reported zero or
collision is never a truncation artifact.  Scope results carry
exact=False and a note naming the support bound.

is_rigid and is_compatible only ask whether a product is zero, through
rings.zero_keys: where the ring has masks (a finite reduced commutative
ring, or the widened F[[x,y]]/(xy)), each scanned value and twist image
gets its mask once per scan and a pair is zero iff the masks are
disjoint; on other rings the pair is multiplied, in the same loop and
order, so the witnesses are the same either way.  Two predicates bend the
rule: is_compatible shrinks the scope support until at most
PAIR_SCAN_BUDGET pairs remain, answers the identity and an injective
twist of a domain without a scan, and refuses a finite ring's scan past
UNIT_PAIR_BUDGET pairs; preserves_nonunits tests units in the ring
itself, because a truncated model computes the constant term, and so the
unit test, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rings import (Element, _additive_group, is_domain, is_reduced, memo,
                    require_budget, require_finite, scan_domain, zero_keys)

PAIR_SCAN_BUDGET = 40_000     # quadratic scope scans shrink support to fit


class EndoValidationError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness or {}


class Endo:
    """A ring endomorphism with cached powers: a built-in map whose ring
    kind fits, or a table read from a file whose laws its constructor
    checks.  Each subclass defines apply_v.  `stream_text` keys sampled
    streams: a built-in twist's text, or a table twist's images in value
    order.  A truncated model accepts only the identity and endo:xsq
    (frob needs gf, diag needs prod, and a table needs a finite ring),
    so only those two define degree_bound and reach widened()."""

    def __init__(self, ring, name: str):
        self.ring = ring
        self.name = name
        self.text = self.stream_text = "endo:" + name
        self.is_identity = name == "id"
        self._power_maps = None
        self._cache = {}

    def __eq__(self, other):
        return (isinstance(other, Endo) and other.ring == self.ring
                and other.text == self.text and other.stream_text == self.stream_text)

    def __hash__(self):
        return hash((self.ring.spec_text, self.text, self.stream_text))

    def __repr__(self):
        return "<%s on %s>" % (self.text, self.ring.spec_text)

    def widened(self):
        """The same twist on ring.widen(), the model's one widened copy:
        that copy's own built-in twist, which every scan and replay reads."""
        return build_twist(self.ring.widen(), self.name, None)

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


class IdentityEndo(Endo):
    def __init__(self, ring):
        super().__init__(ring, "id")

    def apply_v(self, v):
        return v

    def degree_bound(self, t: int, dx: int, dy: int):
        """Degree bounds (x-part, y-part) of a value with bounds (dx, dy)
        after t applications of the map."""
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

    def degree_bound(self, t: int, dx: int, dy: int):
        return dx << t, dy


class TableEndo(Endo):
    """A finite ring's table of "src -> dst" lines, its laws checked."""

    def __init__(self, ring, name: str, table_text: str):
        super().__init__(ring, name)
        table = {}
        for line in table_text.split("\n"):
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
        self.stream_text = "endo:table:" + ",".join(
            ring.text_of_v(table[v]) for v in ring.values())
        _validate_endo(self)

    def apply_v(self, v):
        return self.table[v]


def _validate_endo(endo: Endo):
    """Check that a table twist f fixes 1, and that f(a+g) = f(a)+f(g)
    and f(a*g) = f(a)*f(g) for every value a and every g of an additive
    generating set G.  Every b is a sum of members of G, so by induction
    f is additive on all pairs (a = 0 gives f(0) = 0), and then
    multiplicative, by distributivity.  Table twists exist only on
    finite rings.  Raises EndoValidationError with the failing law and
    pair (a, g), checking + before * for each a, then each g."""
    ring = endo.ring
    f = endo.apply_v
    if f(ring.one_v) != ring.one_v:
        raise EndoValidationError(
            "%s on %s does not fix 1" % (endo.text, ring.spec_text),
            {"law": "unity"})
    # G: each value outside the group the earlier members generate, so
    # each member at least doubles the group and |G| <= log2 |R|
    gens, group = [], {ring.zero_v}
    for v in ring.values():
        if v not in group:
            gens.append(v)
            _additive_group(ring, group, (v,))
    for a in ring.values():
        fa = f(a)
        for g in gens:
            s, fs = f(ring.k_add(a, g)), ring.k_add(fa, f(g))
            if s != fs:
                raise EndoValidationError(
                    "%s on %s is not additive" % (endo.text, ring.spec_text),
                    {"law": "+", "a": ring.text_of_v(a), "b": ring.text_of_v(g),
                     "image_of_sum": ring.text_of_v(s),
                     "sum_of_images": ring.text_of_v(fs)})
            m, fm = f(ring.k_mul(a, g)), ring.k_mul(fa, f(g))
            if m != fm:
                raise EndoValidationError(
                    "%s on %s is not multiplicative" % (endo.text, ring.spec_text),
                    {"law": "*", "a": ring.text_of_v(a), "b": ring.text_of_v(g),
                     "image_of_product": ring.text_of_v(m),
                     "product_of_images": ring.text_of_v(fm)})


BUILT_IN_TWISTS = {"id": IdentityEndo, "frob": FrobeniusEndo,
                   "diag": DiagonalEndo, "xsq": SquareVariableEndo}


@memo
def build_twist(ring, name: str, table_text: Optional[str]) -> Endo:
    """The twist endo:<name> of this ring object, built once per name and,
    for a table twist, once per text of its file (None for a built-in)."""
    if table_text is None:
        return BUILT_IN_TWISTS[name](ring)
    return TableEndo(ring, name, table_text)


def build_endo(ring, text: str) -> Endo:
    """Parse endo:id | endo:frob | endo:xsq | endo:diag | endo:table:<file>
    against a ring.  A built-in twist checks only that the ring has its
    kind; a table twist needs a finite ring, and its file is read on each
    call (the file can change), but checked once per ring and content."""
    s = text.strip()
    if not s.startswith("endo:"):
        raise EndoValidationError("endo spec must start with 'endo:': %r" % text)
    name = s[5:]
    if name.startswith("table:"):
        require_finite((ring,), "endo:table needs a finite ring", EndoValidationError)
        with open(name[6:], "r", encoding="utf-8") as fh:
            table_text = fh.read()
        return build_twist(ring, name, table_text)
    if name not in BUILT_IN_TWISTS:
        raise EndoValidationError("unrecognized endo spec: %r" % text)
    return build_twist(ring, name, None)


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
    return endo if dom.exact else endo.widened()


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
                               dom.exact, "image collision")
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
    """a*b = 0 iff a*endo(b) = 0, over all (scope) pairs.  The identity
    is compatible, and so is an injective twist of a domain: there
    a*endo(b) = 0 iff a = 0 or b = 0 iff a*b = 0.  Any other twist scans
    the pairs, and a finite ring refuses past UNIT_PAIR_BUDGET pairs."""
    ring = endo.ring
    dom = scan_domain(ring)
    # quadratic scan: scope support shrinks until the pairs fit the budget
    while not dom.exact and dom.support > 1 and dom.size ** 2 > PAIR_SCAN_BUDGET:
        dom = scan_domain(ring, dom.support - 1)
    if endo.is_identity or (is_domain(ring).domain and is_injective(endo).holds):
        return EndoVerdict(True, None, dom.exact, dom.note("pair scan"))
    require_budget(ring, "compatibility pair scan", dom.size ** 2)
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
