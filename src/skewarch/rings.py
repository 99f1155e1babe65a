"""Finite coefficient rings with exact arithmetic and canonical forms.

Supported constructions: integers mod n, Galois fields GF(p^k), finite
products, generated subrings (sharing the ambient unity), quotients by
ideals, truncated power series rings R[[u]] mod u^(N+1), and the
two-variable quotient F[[x,y]]/(xy) truncated at degree N in each
variable.

Every ring built here is commutative: each construction starts from
zmod or gf and keeps commutativity.  The code relies on it: an ideal is
R*g1 + ... + R*gk, a subring closes under products on one side, and
R*a = a*R.  Only the skew products of skew.py do not commute.

The last two are "truncated models": they stand in for infinite rings,
so exhaustive element scans are replaced by scans over a support-bounded
scope, and products inside scope checks are evaluated in a widened copy
of the ring so an apparent zero is never a truncation artifact.

The series model, and the skew polynomials and series of skew.py, share
one coefficient-window product, window_mul, and one degree-by-degree
inverse, window_inverse, each with an optional twist.  The two-variable
model is a pair of series: since xy = 0, a value a + X + Y is stored as
the one-variable series a + X and a + Y, which share the constant a, and
computed half by half with the series ring's kernels.  Coefficients that
are values of either model, themselves windows, are multiplied term by
term into rows through the base ring's kernels.

GF(p^k) stores a value as the integer whose base-p digits are its
coordinates and computes by table lookup: construction finds a primitive
element g and tabulates its powers, their logarithms and the Zech
logarithms log(1 + g^n), so a product or sum of nonzero values is an
index sum and a lookup (see GaloisFieldRing).  The polynomial product
only builds these tables.

Every ring has a canonical text form, which construct_ring parses and
each ring prints from its parts, and every element a canonical printed
form; parse and print round-trip exactly.
No floating point is used anywhere.
"""

from __future__ import annotations

import inspect
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Optional

ENUMERATION_CAP = 65_536       # refuse to materialize finite rings beyond this
SCOPE_ENUMERATION_BUDGET = 200_000   # truncated-model scans shrink support to fit
NILPOTENT_BOUND = 16           # highest power a truncated-model replay tries
UNIT_PAIR_BUDGET = 1 << 20     # pairs or triples a guarded scan may visit


class RingConstructionError(ValueError):
    """A ring spec is malformed or names no ring that construct_ring
    builds: a reducible gf modulus, a ring past a size cap, a quotient by
    an ideal containing 1, or a part or precision a construction
    refuses."""


class RingMismatchError(ValueError):
    """Elements of distinct rings were combined."""


class NonEnumerableError(RuntimeError):
    """An exhaustive scan was requested on a truncated-model ring, or
    would exceed its cost budget."""


def memo(fn):
    """Keep fn(obj, *args)'s result in obj._cache, keyed by the function
    name and the remaining arguments with their defaults filled in, so a
    ring or twist computes each property once.  A call that raises stores
    nothing."""
    sig = inspect.signature(fn)
    arity = len(sig.parameters) - 1

    @wraps(fn)
    def cached(obj, *args, **kwargs):
        if kwargs or len(args) != arity:
            bound = sig.bind(obj, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        key = (fn.__name__, *args)
        if key not in obj._cache:
            obj._cache[key] = fn(obj, *args)
        return obj._cache[key]
    return cached


def split_top(text: str, sep: str):
    """Split on sep occurrences at bracket depth zero."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# -- dense little-endian polynomial helpers over Z/p, used only for GF setup


def _pmod(a, m, p):
    # a and m monic; each step strips the remainder, so its top is nonzero
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        c = a[-1]
        shift = len(a) - 1 - dm
        for j in range(dm + 1):
            a[shift + j] = (a[shift + j] - c * m[j]) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _is_irreducible(coeffs, p) -> bool:
    k = len(coeffs) - 1
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for j in range(p ** d):
            div = _digits(j, p, d) + [1]
            if not _pmod(coeffs, div, p):
                return False
    return True


def _power(mul, one, x, n: int):
    """x^n by square-and-multiply; x^0 is one, also for x = 0.  The
    accumulator starts at the power of x for n's lowest set bit, so no
    product is by one."""
    if not n:
        return one
    while not n & 1:
        x = mul(x, x)
        n >>= 1
    acc = x
    n >>= 1
    while n:
        x = mul(x, x)
        if n & 1:
            acc = mul(acc, x)
        n >>= 1
    return acc


def product_memo(ring):
    """A mul(x, y) that calls ring.k_mul once per distinct pair and reads
    the result from a dict after that.  A scan makes one per call and
    drops it on return.  It is no cache on the ring: memory stays
    bounded by one call's distinct pairs, and no other check reads a
    product from it."""
    products, k_mul = {}, ring.k_mul

    def mul(x, y):
        p = products.get((x, y))
        if p is None:
            p = products[x, y] = k_mul(x, y)
        return p
    return mul


def _digits(i, base, length):
    out = []
    for _ in range(length):
        out.append(i % base)
        i //= base
    return out


def default_irreducible(p: int, k: int) -> tuple:
    """Lexicographically least monic irreducible of degree k over Z/p,
    scanning constant-first digit vectors.  Pinned so that gf:p:k without
    an explicit modulus always means the same field table.  The scan
    always returns: Z/p has a monic irreducible of every degree k >= 1,
    since GF(p^k) exists and the minimal polynomial of a generator of
    its unit group has degree k."""
    for i in range(p ** k):
        cand = _digits(i, p, k) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)


# ---------------------------------------------------------------------------
# elements and subsets


class Element:
    """A ring element: a handle plus a canonical raw value."""

    __slots__ = ("ring", "v")

    def __init__(self, ring, v):
        self.ring = ring
        self.v = v

    def _need_same(self, other):
        if not isinstance(other, Element):
            raise TypeError("cannot combine %r with ring element" % (other,))
        if other.ring != self.ring:
            raise RingMismatchError("elements of %s and %s cannot interoperate"
                                    % (self.ring.spec_text, other.ring.spec_text))

    def __add__(self, other):
        self._need_same(other)
        return Element(self.ring, self.ring.k_add(self.v, other.v))

    def __sub__(self, other):
        self._need_same(other)
        return Element(self.ring, self.ring.k_add(self.v, self.ring.k_neg(other.v)))

    def __neg__(self):
        return Element(self.ring, self.ring.k_neg(self.v))

    def __mul__(self, other):
        self._need_same(other)
        return Element(self.ring, self.ring.k_mul(self.v, other.v))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers need an explicit inverse")
        return Element(self.ring, self.ring.k_pow(self.v, n))

    def __eq__(self, other):
        return (isinstance(other, Element) and other.ring == self.ring
                and other.v == self.v)

    def __hash__(self):
        return hash((self.ring.spec_text, self.v))

    @property
    def text(self) -> str:
        return self.ring.text_of_v(self.v)

    def __repr__(self):
        return self.text


class SubsetHandle:
    """An explicit subset of a finite ring, kept in enumeration order."""

    def __init__(self, ring, values):
        self.ring = ring
        self.members = frozenset(values)
        self.vals = tuple(sorted(self.members, key=ring.value_index.__getitem__))

    def __contains__(self, item):
        v = item.v if isinstance(item, Element) else item
        return v in self.members

    def __len__(self):
        return len(self.vals)

    def __iter__(self):
        return (Element(self.ring, v) for v in self.vals)

    def texts(self):
        return [self.ring.text_of_v(v) for v in self.vals]

    def __eq__(self, other):
        return (isinstance(other, SubsetHandle) and other.ring == self.ring
                and other.vals == self.vals)

    def __hash__(self):
        return hash((self.ring.spec_text, self.vals))

    def __repr__(self):
        body = ",".join(self.texts())
        return "{%s}" % body


# ---------------------------------------------------------------------------
# ring handles


class RingHandle:
    kind = "?"
    truncated = False
    layout = None       # a truncated model's window layout (see window_mul)

    def __init__(self, spec_text: str):
        self.spec_text = spec_text
        if self.card is not None and self.card > ENUMERATION_CAP:
            raise RingConstructionError("%s has %d elements, beyond the enumeration "
                                        "cap %d" % (self.spec_text, self.card,
                                                    ENUMERATION_CAP))
        self._cache = {}
        self._values = None

    # identity is the canonical spec text, so re-constructing the same
    # spec yields interoperable handles
    def __eq__(self, other):
        return isinstance(other, RingHandle) and other.spec_text == self.spec_text

    def __hash__(self):
        return hash(self.spec_text)

    def __repr__(self):
        return "<ring %s>" % self.spec_text

    # -- kernels on raw values; subclasses implement add/neg/mul

    def k_sub(self, x, y):
        return self.k_add(x, self.k_neg(y))

    def k_pow(self, x, n: int):
        return _power(self.k_mul, self.one_v, x, n)

    # -- enumeration

    def values(self):
        if self._values is None:
            self._values = list(self._enumerate())
        return self._values

    @cached_property
    def value_index(self) -> dict:
        """value -> its position in values(), built on first use."""
        return {v: i for i, v in enumerate(self.values())}

    # -- units: each class has a rule for is_unit_v (inverse or None) and
    # has_inverse_v (whether a unit), and computes no pair scan

    # -- element-level conveniences

    @property
    def zero(self) -> Element:
        return Element(self, self.zero_v)

    @property
    def one(self) -> Element:
        return Element(self, self.one_v)

    def element(self, v) -> Element:
        return Element(self, v)

    def from_text(self, text: str) -> Element:
        return Element(self, self.v_of_text(text))

    def elements(self):
        return (Element(self, v) for v in self.values())


def require_finite(rings, message: str, error=RingConstructionError):
    """Raise error(message) when one of the rings is a truncated model.
    Every construction that lists the values of a part (a product factor,
    a subring or quotient parent, a series base, a table twist's ring)
    refuses a truncated one here."""
    if any(r.truncated for r in rings):
        raise error(message)


class ZmodRing(RingHandle):
    kind = "zmod"

    def __init__(self, n: int):
        if n < 2:
            raise RingConstructionError("zmod modulus must be >= 2")
        self.n = self.card = n
        self.zero_v, self.one_v = 0, 1
        super().__init__("zmod:%d" % n)

    def k_add(self, x, y):
        return (x + y) % self.n

    def k_neg(self, x):
        return (-x) % self.n

    def k_mul(self, x, y):
        return (x * y) % self.n

    def is_unit_v(self, v):
        return pow(v, -1, self.n) if math.gcd(v, self.n) == 1 else None

    def has_inverse_v(self, v) -> bool:
        return math.gcd(v, self.n) == 1

    def _enumerate(self):
        return range(self.n)

    def text_of_v(self, v):
        return str(v)

    def v_of_text(self, text):
        try:
            return int(text.strip()) % self.n
        except ValueError:
            raise ValueError("bad element %r for %s" % (text, self.spec_text))


class GaloisFieldRing(RingHandle):
    """GF(p^k) as Z/p-coordinate vectors modulo a pinned irreducible.

    Value i is the vector of the little-endian base-p digits of i, so the
    values are range(q) and, for k = 1, the residues themselves.  Every
    field computes by lookup in tables built once, at construction, from
    a primitive element g (Zech logarithms): `_exp[i]` = g^i for
    0 <= i < 2(q-1), so no index needs reducing, and 0 from 2(q-1) on;
    `_log[v]` is the exponent of v, and 2(q-1) for v = 0; `_zech[n]` =
    log(1 + g^n).  Then x*y = exp[log x + log y] and
    x + y = exp[log x + zech[log y - log x]], a negative difference
    reading zech modulo q-1.  Printed form is the bracketed coordinate
    vector."""

    kind = "gf"

    def __init__(self, p: int, k: int, irr: tuple):
        self.p, self.k, self.irr = p, k, irr
        self.card = p ** k
        self.zero_v, self.one_v = 0, 1
        self._texts = {}         # value -> printed form, filled as printed
        self._parsed = {}        # text -> value, filled as parsed
        super().__init__("gf:%d:%d:%s" % (p, k, ",".join(map(str, irr))))
        self._build_tables()

    def _coords(self, v):
        return tuple(_digits(v, self.p, self.k))

    def _value(self, coords):
        v = 0
        for c in reversed(coords):
            v = v * self.p + c
        return v

    def _poly_mul(self, x, y):
        """x*y for coordinate tuples, as polynomials modulo the pinned
        irreducible: the tables are built from it.  Skips zeros of x."""
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    prod[i + j] = (prod[i + j] + a * b) % p
        # fold high terms through the monic modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * self.irr[j]) % p
        return tuple(prod[:k])

    def _primitive_element(self):
        """The least nonzero value of multiplicative order q-1:
        g^((q-1)/r) != 1 for each prime r dividing q-1.  The modulus is
        irreducible (construct_ring checks it), so the units form a
        cyclic group and such g exists.  For k >= 2 the constants have
        order at most p-1 < q-1, so none of them is chosen."""
        one, order = self._coords(1), self.card - 1
        primes = [r for r in range(2, order + 1) if order % r == 0 and _is_prime(r)]
        return next(g for g in range(1, self.card)
                    if all(_power(self._poly_mul, one, self._coords(g), order // r) != one
                           for r in primes))

    def _build_tables(self):
        # the powers of g are walked as coordinate tuples, each read once
        p, order = self.p, self.card - 1
        g = self._coords(self._primitive_element())
        power, powers = self._coords(1), [1]
        for _ in range(order - 1):
            power = self._poly_mul(g, power)
            powers.append(self._value(power))
        # zero's logarithm lies past every power and exp reads 0 from there
        # on, so products, negatives and 1 + g^n = 0 need no zero test
        zero_log = 2 * order
        self._log = [zero_log] * self.card
        for i, v in enumerate(powers):
            self._log[v] = i
        self._exp = powers + powers + [0] * (zero_log + 1)
        # adding 1 raises coordinate 0, the lowest digit
        self._zech = [self._log[v - v % p + (v + 1) % p] for v in powers]
        # -1 = g^((q-1)/2) in odd characteristic, and 1 in characteristic 2
        self._neg_log = 0 if p == 2 else order // 2

    def k_add(self, x, y):
        if not x:
            return y
        if not y:
            return x
        log = self._log
        lx = log[x]
        return self._exp[lx + self._zech[log[y] - lx]]

    def k_neg(self, x):
        return self._exp[self._log[x] + self._neg_log]

    def k_mul(self, x, y):
        log = self._log
        return self._exp[log[x] + log[y]]

    def k_pow(self, x, n: int):
        if n == 0:
            return 1
        return self._exp[self._log[x] * n % (self.card - 1)] if x else 0

    def is_unit_v(self, v):
        if v == 0:
            return None
        # field: v^(q-2), one table lookup
        return self.k_pow(v, self.card - 2)

    def has_inverse_v(self, v) -> bool:
        return v != 0

    def _enumerate(self):
        return range(self.card)

    def text_of_v(self, v):
        text = self._texts.get(v)
        if text is None:
            text = self._texts[v] = "[%s]" % ",".join(str(c) for c in self._coords(v))
        return text

    def v_of_text(self, text):
        v = self._parsed.get(text)
        if v is None:
            s = text.strip()
            if not (s.startswith("[") and s.endswith("]")):
                raise ValueError("bad element %r for %s" % (text, self.spec_text))
            parts = [t.strip() for t in s[1:-1].split(",")]
            if len(parts) != self.k:
                raise ValueError("element %r needs %d coordinates" % (text, self.k))
            v = self._parsed[text] = self._value([int(t) % self.p for t in parts])
        return v


class ProductRing(RingHandle):
    kind = "prod"

    def __init__(self, factors: tuple):
        self.factors = factors
        require_finite(factors, "product factors must be finite rings")
        self.card = 1
        for f in factors:
            self.card *= f.card
        self.zero_v = tuple(f.zero_v for f in factors)
        self.one_v = tuple(f.one_v for f in factors)
        super().__init__("prod(%s)" % ",".join(f.spec_text for f in factors))

    def k_add(self, x, y):
        if len(x) == 2:
            return self.factors[0].k_add(x[0], y[0]), self.factors[1].k_add(x[1], y[1])
        return tuple([f.k_add(a, b) for f, a, b in zip(self.factors, x, y)])

    def k_neg(self, x):
        return tuple(f.k_neg(a) for f, a in zip(self.factors, x))

    def k_mul(self, x, y):
        if len(x) == 2:
            return self.factors[0].k_mul(x[0], y[0]), self.factors[1].k_mul(x[1], y[1])
        return tuple([f.k_mul(a, b) for f, a, b in zip(self.factors, x, y)])

    def is_unit_v(self, v):
        invs = []
        for f, a in zip(self.factors, v):
            inv = f.is_unit_v(a)
            if inv is None:
                return None
            invs.append(inv)
        return tuple(invs)

    def has_inverse_v(self, v) -> bool:
        return all(f.has_inverse_v(a) for f, a in zip(self.factors, v))

    def _enumerate(self):
        return itertools.product(*(f.values() for f in self.factors))

    def text_of_v(self, v):
        return "(%s)" % ",".join(f.text_of_v(a) for f, a in zip(self.factors, v))

    def v_of_text(self, text):
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError("bad element %r for %s" % (text, self.spec_text))
        parts = split_top(s[1:-1], ",")
        if len(parts) != len(self.factors):
            raise ValueError("element %r needs %d components" % (text, len(self.factors)))
        return tuple(f.v_of_text(t) for f, t in zip(self.factors, parts))


def _additive_group(parent, members: set, gens) -> set:
    """Grow the additive group members to the group it and the gens
    generate.  A gen g outside the group H so far adds the cosets H + g,
    H + 2g, ... up to the first multiple of g in H; a gen inside adds
    nothing."""
    for g in gens:
        if g in members:
            continue
        base, c = list(members), g
        while c not in members:
            members.update([parent.k_add(h, c) for h in base])
            c = parent.k_add(c, g)
    return members


def _closure(parent, seeds) -> set:
    """The subring the seeds generate: the additive group of the products
    of seeds, each found once by multiplying a product by a seed."""
    products, seen = [parent.one_v], {parent.one_v}
    for m in products:
        for g in seeds:
            c = parent.k_mul(m, g)
            if c not in seen:
                seen.add(c)
                products.append(c)
    return _additive_group(parent, {parent.zero_v}, products)


class SubRing(RingHandle):
    """Closure of {0, 1} and the generators (see derived_ring) inside a
    finite parent; shares the ambient unity by construction.  Its units
    and inverses are the parent's: a unit of a finite ring has a power for
    its inverse, which lies in every subring holding the unit."""

    kind = "sub"

    def __init__(self, parent, gens: tuple):
        self.parent, self.gens = parent, gens
        self.members = frozenset(_closure(parent, gens))
        self.card = len(self.members)
        self.is_unit_v, self.has_inverse_v = parent.is_unit_v, parent.has_inverse_v
        self.zero_v = parent.zero_v
        self.one_v = parent.one_v
        super().__init__("sub(%s;%s)" % (parent.spec_text,
                                         ",".join(map(parent.text_of_v, gens))))

    def k_add(self, x, y):
        return self.parent.k_add(x, y)

    def k_neg(self, x):
        return self.parent.k_neg(x)

    def k_mul(self, x, y):
        return self.parent.k_mul(x, y)

    def _enumerate(self):
        return sorted(self.members, key=self.parent.value_index.__getitem__)

    def text_of_v(self, v):
        return self.parent.text_of_v(v)

    def v_of_text(self, text):
        v = self.parent.v_of_text(text)
        if v not in self.members:
            raise ValueError("%s is not a member of %s" % (text, self.spec_text))
        return v


class QuotientRing(RingHandle):
    """Quotient of a finite ring by the ideal generated by the given
    values (see derived_ring).  Elements are canonical coset
    representatives: the coset member of least parent enumeration index.
    A coset is a unit iff it holds a parent unit u, and then its inverse
    is the coset of u's inverse: a finite commutative ring is a product
    of local rings, and in a local ring units lift modulo every ideal."""

    kind = "quot"

    def __init__(self, parent, gens: tuple):
        self.parent, self.gens = parent, gens
        ideal, vals = {parent.zero_v}, parent.values()
        for g in gens:
            if g not in ideal:   # else R*g lies in the ideal so far
                _additive_group(parent, ideal, (parent.k_mul(r, g) for r in vals))
        self.ideal = SubsetHandle(parent, ideal)
        rep, self._unit_lifts = {}, {}   # unit coset -> a parent unit in it
        self._reps = []
        for a in vals:
            if a in rep:
                continue
            # the values come in parent index order, and meeting any member
            # of a coset maps the whole coset, so a, the first member met,
            # is the member of least index
            self._reps.append(a)
            for m in (parent.k_add(a, i) for i in ideal):
                rep[m] = a
                if parent.has_inverse_v(m):
                    self._unit_lifts[a] = m
        self.rep_map = rep
        self.card = len(self._reps)
        self.zero_v = rep[parent.zero_v]
        self.one_v = rep[parent.one_v]
        super().__init__("quot(%s;%s)" % (parent.spec_text,
                                          ",".join(map(parent.text_of_v, gens))))
        if self.zero_v == self.one_v:
            raise RingConstructionError("%s: zero equals one" % self.spec_text)

    def k_add(self, x, y):
        return self.rep_map[self.parent.k_add(x, y)]

    def k_neg(self, x):
        return self.rep_map[self.parent.k_neg(x)]

    def k_mul(self, x, y):
        return self.rep_map[self.parent.k_mul(x, y)]

    def is_unit_v(self, v):
        u = self._unit_lifts.get(v)
        return None if u is None else self.rep_map[self.parent.is_unit_v(u)]

    def has_inverse_v(self, v) -> bool:
        return v in self._unit_lifts

    def _enumerate(self):
        return self._reps   # built in parent index order

    def text_of_v(self, v):
        return self.parent.text_of_v(v)

    def v_of_text(self, text):
        return self.rep_map[self.parent.v_of_text(text)]

    def project_v(self, parent_value):
        return self.rep_map[parent_value]


def _digit_values(i: int, vals, length: int) -> list:
    # the `length` base-len(vals) digits of i, most significant first, as values
    return [vals[d] for d in reversed(_digits(i, len(vals), length))]


# ---------------------------------------------------------------------------
# coefficient windows: the one series product and inverse


def first_nonzero(cs, zero) -> Optional[int]:
    """Index of the first entry of cs other than zero; None if there is none."""
    return next((i for i, c in enumerate(cs) if c != zero), None)


def last_nonzero(cs, zero) -> int:
    """Index of the last entry of cs other than zero; -1 if there is none."""
    return next((i for i in range(len(cs) - 1, -1, -1) if cs[i] != zero), -1)


def _terms(layout, v):
    # the base windows of v as lists of (degree, nonzero value) terms
    zero, split = layout[0].zero_v, layout[1]
    return [[(k, c) for k, c in enumerate(w) if c != zero] for w in split(v)]


def _add_products(rows, xs, ys, base):
    """Add the product of two values listed by _terms into rows, window by
    window: terms of degrees k and l add into entry k + l, within the row."""
    add, mul, zero = base.k_add, base.k_mul, base.zero_v
    for row, x_terms, y_terms in zip(rows, xs, ys):
        top = len(row) - 1
        for k, x in x_terms:
            for l, y in y_terms:
                if k + l > top:
                    break
                p = mul(x, y)
                row[k + l] = p if row[k + l] == zero else add(row[k + l], p)


def window_mul(ring, xs, ys, limit: int, twist=None) -> list:
    """Coefficients 0..limit of sum x_i * twist(i, y_j) u^(i+j) for two
    coefficient windows over ring, skipping zero coefficients.
    twist(t, v) applies the t-th power of an endomorphism; None is the
    identity and costs no call.  Every series product in the package is
    this one: truncated series rings, each block of F[[x,y]]/(xy), and
    skew polynomials and series (u*a = alpha(a)*u).  A truncated model's
    layout is (finite base ring, value -> base windows, rows -> value)."""
    zero, layout = ring.zero_v, ring.layout
    nonzero_ys = [(j, y) for j, y in enumerate(ys) if y != zero]
    if layout is not None:
        (base, _, join), width = layout, ring.precision + 1
        rows = [None] * (limit + 1)
        listed = [(j, _terms(layout, y) if twist is None else y) for j, y in nonzero_ys]
        for i, x in enumerate(xs):
            if x != zero:
                x_terms = _terms(layout, x)
                for j, y in listed:
                    if i + j > limit:
                        break
                    if rows[i + j] is None:
                        rows[i + j] = [[base.zero_v] * width for _ in x_terms]
                    _add_products(rows[i + j], x_terms, y if twist is None else
                                  _terms(layout, twist(i, y)), base)
        return [zero if row is None else join(row) for row in rows]
    add, mul = ring.k_add, ring.k_mul
    out = [zero] * (limit + 1)
    for i, x in enumerate(xs):
        if x != zero:
            for j, y in nonzero_ys:
                if i + j > limit:
                    break
                p = mul(x, y if twist is None else twist(i, y))
                out[i + j] = p if out[i + j] == zero else add(out[i + j], p)
    return out


def window_inverse(ring, g, twist=None) -> Optional[list]:
    """The window h, as long as g, with window_mul(ring, g, h, ..., twist)
    = 1, solved degree by degree; None when g's constant term is not a
    unit.  This right inverse is also a left one: the terms of positive
    degree span a two-sided ideal, nilpotent in the window, and units
    lift modulo a nilpotent ideal, so g is a unit, and a one-sided
    inverse of a unit is its two-sided inverse."""
    g0inv = ring.is_unit_v(g[0])
    if g0inv is None:
        return None
    zero, layout = ring.zero_v, ring.layout
    add, mul = ring.k_add, ring.k_mul
    h = [g0inv]
    if layout is not None:
        (base, _, join), width = layout, ring.precision + 1
        terms = [_terms(layout, c) for c in g]
        h_terms = [_terms(layout, g0inv)]
        for m in range(1, len(g)):
            rows = [[base.zero_v] * width for _ in terms[0]]
            for i in range(1, m + 1):
                if g[i] != zero:
                    _add_products(rows, terms[i], h_terms[m - i] if twist is None
                                  else _terms(layout, twist(i, h[m - i])), base)
            h.append(ring.k_neg(mul(g0inv, join(rows))))
            if twist is None:
                h_terms.append(_terms(layout, h[-1]))
        return h
    for m in range(1, len(g)):
        acc = zero
        for i in range(1, m + 1):
            if g[i] != zero:
                hi = h[m - i] if twist is None else twist(i, h[m - i])
                acc = add(acc, mul(g[i], hi))
        h.append(ring.k_neg(mul(g0inv, acc)))
    return h


class TruncatedModel(RingHandle):
    """A truncated model: not enumerable, scanned over its numbered scope.
    Subclasses define `scope_size(s)`, the number of values of support
    <= s, and `scope_value(i, s)`, entry i of that scope in its listing
    order."""

    truncated = True

    def values(self):
        raise NonEnumerableError("%s is a truncated model: it has no value "
                                 "listing; derived_archimedean decides its "
                                 "Archimedean property, and scope_values "
                                 "lists its scope" % self.spec_text)

    @property
    def scope(self) -> int:
        return self.precision // 2

    def bounded_support(self) -> int:
        """Largest support s <= scope whose scope size fits
        SCOPE_ENUMERATION_BUDGET; exhaustive scans shrink to this
        automatically."""
        s = self.scope
        while s > 0 and self.scope_size(s) > SCOPE_ENUMERATION_BUDGET:
            s -= 1
        return s

    def scope_values(self, max_support: Optional[int] = None):
        s = self.bounded_support() if max_support is None else max_support
        s = min(s, self.precision)
        n = self.scope_size(s)
        if n > SCOPE_ENUMERATION_BUDGET:
            raise NonEnumerableError("scope of %s too large to scan" % self.spec_text)
        return [self.scope_value(i, s) for i in range(n)]


class TruncSeriesRing(TruncatedModel):
    """R[[u]] truncated at u^(N+1): length-(N+1) coefficient tuples with
    convolution products.  A truncated model: scans are scope-bounded."""

    kind = "tser"

    def __init__(self, base, precision: int):
        require_finite((base,), "tser base must be a finite ring")
        if precision < 1:
            raise RingConstructionError("tser precision must be >= 1")
        self.base, self.precision = base, precision
        self.card = None
        self.zero_v = (base.zero_v,) * (precision + 1)
        self.one_v = (base.one_v,) + (base.zero_v,) * precision
        self.layout = (base, lambda v: (v,), lambda rows: tuple(rows[0]))
        super().__init__("tser(%s,N=%d)" % (base.spec_text, precision))

    def k_add(self, x, y):
        return tuple(map(self.base.k_add, x, y))

    def k_neg(self, x):
        return tuple(map(self.base.k_neg, x))

    def k_mul(self, x, y):
        return tuple(window_mul(self.base, x, y, self.precision))

    def is_unit_v(self, v):
        # unit iff the constant term is; truncation-model semantics
        inv = window_inverse(self.base, v)
        if inv is None:
            return None
        out = tuple(inv)
        if self.k_mul(v, out) != self.one_v:
            raise RuntimeError("series inverse failed its check")
        return out

    def has_inverse_v(self, v) -> bool:
        return self.base.has_inverse_v(v[0])

    def monomial_v(self, k: int):
        out = [self.base.zero_v] * (self.precision + 1)
        out[k] = self.base.one_v
        return tuple(out)

    def inner_order(self, v) -> Optional[int]:
        """Least degree of a nonzero coefficient; None for zero."""
        return first_nonzero(v, self.base.zero_v)

    def block_degrees(self, v):
        """Degree bounds (x-part, y-part); a plain series counts entirely
        as the x-part."""
        return max(last_nonzero(v, self.base.zero_v), 0), 0

    def scope_size(self, s: int) -> int:
        return len(self.base.values()) ** (s + 1)

    def scope_value(self, i: int, s: int):
        head = _digit_values(i, self.base.values(), s + 1)
        return tuple(head) + (self.base.zero_v,) * (self.precision - s)

    @memo
    def widen(self):
        return TruncSeriesRing(self.base, self.precision * 2)

    def lift_v(self, v):
        """v in widen(), whose window is twice as long."""
        return tuple(v) + (self.base.zero_v,) * self.precision

    def text_of_v(self, v):
        return "[%s]" % ",".join(self.base.text_of_v(c) for c in v)

    def v_of_text(self, text):
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError("bad element %r for %s" % (text, self.spec_text))
        parts = [t for t in split_top(s[1:-1], ",") if t.strip() != ""]
        if len(parts) > self.precision + 1:
            raise ValueError("element %r exceeds precision %d" % (text, self.precision))
        coeffs = [self.base.v_of_text(t) for t in parts]
        coeffs += [self.base.zero_v] * (self.precision + 1 - len(coeffs))
        return tuple(coeffs)


class XYQuotientRing(TruncatedModel):
    """F[[x,y]]/(xy) truncated at degree N in each variable.

    Since xy = 0, a value a + X + Y is stored as the pair (a + X, a + Y):
    two values of the series ring tser(F, N), `self.series` (coefficients
    of degrees 0..N) over the given field F, with the same constant term
    a.  Sums, products, inverses and units are taken half by half in it."""

    kind = "xyq"

    def __init__(self, field, precision: int):
        if precision < 2:
            raise RingConstructionError("xyq precision must be >= 2")
        self.field, self.precision = field, precision
        self.series = TruncSeriesRing(field, precision)
        self.card = None
        self.zero_v = (self.series.zero_v,) * 2
        self.one_v = (self.series.one_v,) * 2
        self.layout = (field, lambda v: v, lambda rows: tuple(map(tuple, rows)))
        super().__init__("xyq:%s:N=%d" % (field.spec_text, precision))

    def k_add(self, x, y):
        add = self.series.k_add
        return add(x[0], y[0]), add(x[1], y[1])

    def k_neg(self, x):
        neg = self.series.k_neg
        return neg(x[0]), neg(x[1])

    def k_mul(self, x, y):
        mul = self.series.k_mul
        return mul(x[0], y[0]), mul(x[1], y[1])

    def is_unit_v(self, v):
        # a unit iff the common constant term is; the series ring inverts
        # and checks each half
        inv = self.series.is_unit_v
        xs = inv(v[0])
        return None if xs is None else (xs, inv(v[1]))

    def has_inverse_v(self, v) -> bool:
        return self.series.has_inverse_v(v[0])

    def zero_mask_v(self, v) -> int:
        """Bit 0 is set iff the x-series is nonzero, bit 1 iff the
        y-series is.  A product is the pair of series products and F[[x]]
        is a domain, so a*b = 0 iff the masks of a and b are disjoint,
        whenever the block degrees of a and b sum to at most N: true of
        lifted scope values and their twist images in the widened copy,
        where the scans take their products."""
        z = self.series.zero_v
        return (v[0] != z) | (v[1] != z) << 1

    def x_v(self, power: int = 1):
        return self.series.monomial_v(power), self.series.zero_v

    def y_v(self, power: int = 1):
        return self.series.zero_v, self.series.monomial_v(power)

    def inner_order(self, v) -> Optional[int]:
        orders = map(self.series.inner_order, v)
        return min((o for o in orders if o is not None), default=None)

    def block_degrees(self, v):
        """Largest degrees (x-block, y-block) carrying a nonzero
        coefficient; 0 for a block that is all zero."""
        degree = self.series.block_degrees
        return degree(v[0])[0], degree(v[1])[0]

    def scope_size(self, s: int) -> int:
        return len(self.field.values()) ** (1 + 2 * s)

    def scope_value(self, i: int, s: int):
        """The constant, then the x-block, then the y-block digits."""
        d = _digit_values(i, self.field.values(), 1 + 2 * s)
        pad = (self.field.zero_v,) * (self.precision - s)
        return tuple(d[:s + 1]) + pad, (d[0], *d[s + 1:]) + pad

    @memo
    def widen(self):
        return XYQuotientRing(self.field, self.precision * 2)

    def lift_v(self, v):
        lift = self.series.lift_v
        return lift(v[0]), lift(v[1])

    def text_of_v(self, v):
        text = self.field.text_of_v
        return "(%s;[%s];[%s])" % (text(v[0][0]), ",".join(map(text, v[0][1:])),
                                   ",".join(map(text, v[1][1:])))

    def v_of_text(self, text):
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError("bad element %r for %s" % (text, self.spec_text))
        parts = split_top(s[1:-1], ";")
        if len(parts) != 3:
            raise ValueError("xyq element %r needs (const;[x-block];[y-block])" % text)
        F = self.field
        a = F.v_of_text(parts[0])
        halves = []
        for part in parts[1:]:
            t = part.strip()
            if not (t.startswith("[") and t.endswith("]")):
                raise ValueError("bad xyq block %r" % part)
            entries = [e for e in split_top(t[1:-1], ",") if e.strip() != ""]
            if len(entries) > self.precision:
                raise ValueError("xyq block %r exceeds precision %d"
                                 % (part, self.precision))
            coeffs = [a] + [F.v_of_text(e) for e in entries]
            coeffs += [F.zero_v] * (self.precision + 1 - len(coeffs))
            halves.append(tuple(coeffs))
        return tuple(halves)


# ---------------------------------------------------------------------------
# construction

_RING_CACHE: dict = {}   # spec text, or (builder, *parts), -> ring


def _ints(texts, message: str) -> list:
    """The integers the texts name; RingConstructionError(message) when
    one names none."""
    try:
        return [int(t) for t in texts]
    except ValueError:
        raise RingConstructionError(message) from None


def _precision_split(body: str, sep: str, kind: str, text: str):
    """(part text, precision) of a body that ends in sep and a precision."""
    part, found, precision = body.rpartition(sep)
    if not found:
        raise RingConstructionError("%s spec needs %s<precision>: %r" % (kind, sep, text))
    return part, _ints([precision], "bad %s precision: %r" % (kind, text))[0]


def _gf_parts(s: str, text: str) -> tuple:
    """(p, k, irr) of a gf text.  The size cap is checked before any
    primality or modulus work, and without forming p^k for a large k:
    for p >= 2, p^k is past the cap iff p^min(k, b) is, where 2^b is the
    first power of two past it."""
    parts = s.split(":")
    if len(parts) not in (3, 4):
        raise RingConstructionError("bad gf spec: %r" % text)
    p, k = _ints(parts[1:3], "bad gf spec: %r" % text)
    if p > 1 and k > 0 and p ** min(k, ENUMERATION_CAP.bit_length()) > ENUMERATION_CAP:
        raise RingConstructionError("%s has %d^%d elements, beyond the enumeration "
                                    "cap %d" % (s, p, k, ENUMERATION_CAP))
    if k < 1 or not _is_prime(p):
        raise RingConstructionError("gf needs prime p and k >= 1: %r" % text)
    if len(parts) == 3:
        return p, k, default_irreducible(p, k)
    irr = tuple(_ints(parts[3].split(","), "bad gf modulus: %r" % text))
    if len(irr) != k + 1 or irr[-1] != 1 or any(not 0 <= c < p for c in irr):
        raise RingConstructionError("gf modulus must be monic of degree k with "
                                    "coefficients in [0,p): %r" % text)
    if not _is_irreducible(list(irr), p):
        raise RingConstructionError("gf modulus is reducible: %r" % text)
    return p, k, irr


def _factor_texts(body: str) -> list:
    """The factor texts of a prod body.  A gf modulus also uses commas,
    so a comma piece that starts with a digit continues the piece before
    it: every kind starts with a letter."""
    texts = []
    for piece in split_top(body, ","):
        if texts and piece.strip()[:1].isdigit():
            texts[-1] += "," + piece
        else:
            texts.append(piece)
    return texts


def construct_ring(text: str) -> RingHandle:
    """Build (or fetch) the ring a spec text names.  The grammar:

        zmod:6 | gf:2:2:1,1,1 (modulus optional) | prod(s1,s2,...) |
        sub(s;g1,g2) | quot(s;g1,g2) | tser(s,N=16) | xyq:gf:2:1:N=8

    Each part a text names is built through construct_ring and handed to
    the ring's class, which prints the canonical text from its parts.  A
    text seen before is answered from the cache without parsing, and
    texts naming the same parts (gf:2:2 and gf:2:2:1,1,1, say) give one
    object.

    Construction checks what a spec can get wrong and raises
    RingConstructionError there: a malformed spec, a gf past
    ENUMERATION_CAP or with a reducible modulus (_gf_parts), any other
    finite ring past the cap (RingHandle.__init__), a quotient by an
    ideal containing 1, a generator naming no value of its parent
    (canonical_gens), and a part or precision a construction refuses
    (zmod:1, a truncated model as a factor, parent or base, refused by
    require_finite; xyq with N < 2).  A spec that passes builds a ring,
    so no ring law is sampled here; tests/test_ring_laws.py checks the
    laws of every kind."""
    ring = _RING_CACHE.get(text)
    if ring is not None:
        return ring
    s = text.strip()
    if s.startswith("zmod:"):
        build, parts = ZmodRing, _ints([s[5:]], "bad zmod spec: %r" % text)
    elif s.startswith("xyq:"):
        base, precision = _precision_split(s[4:], ":N=", "xyq", text)
        field = construct_ring(base)
        if field.kind != "gf":
            raise RingConstructionError("xyq base must be a gf spec: %r" % text)
        build, parts = XYQuotientRing, (field, precision)
    elif s.startswith("gf:"):
        build, parts = GaloisFieldRing, _gf_parts(s, text)
    elif s.startswith("prod(") and s.endswith(")"):
        factors = tuple(construct_ring(f) for f in _factor_texts(s[5:-1]))
        if len(factors) < 2:
            raise RingConstructionError("prod needs at least two factors: %r" % text)
        build, parts = ProductRing, (factors,)
    elif s.startswith(("sub(", "quot(")) and s.endswith(")"):
        head, _, inner = s[:-1].partition("(")
        halves = split_top(inner, ";")
        if len(halves) != 2:
            raise RingConstructionError("%s(...) needs parent;gens: %r" % (head, text))
        gens = tuple(g for g in (t.strip() for t in split_top(halves[1], ",")) if g)
        cls = SubRing if head == "sub" else QuotientRing
        build, parts = derived_ring, (construct_ring(halves[0]), cls, gens)
    elif s.startswith("tser(") and s.endswith(")"):
        base, precision = _precision_split(s[5:-1], ",N=", "tser", text)
        build, parts = TruncSeriesRing, (construct_ring(base), precision)
    else:
        raise RingConstructionError("unrecognized ring spec: %r" % text)
    key = (build, *parts)
    ring = _RING_CACHE.get(key)
    if ring is None:
        ring = _RING_CACHE[key] = build(*parts)
    _RING_CACHE[text] = ring
    return ring


def canonical_gens(parent, kind: str, gens) -> tuple:
    """Generators of a sub or quot of parent (element texts, Elements or
    a SubsetHandle) as parent values, each once, in the parent's value
    order.  That order lists the parent's values, so a truncated parent
    is refused first.  A text naming no value raises
    RingConstructionError, an Element of another ring RingMismatchError."""
    require_finite((parent,), "%s parent must be a finite ring" % kind)
    vals = set()
    for g in gens:
        if isinstance(g, Element) and g.ring != parent:
            raise RingMismatchError("generator from a different ring")
        try:
            vals.add(g.v if isinstance(g, Element) else parent.v_of_text(g))
        except ValueError as err:
            raise RingConstructionError(str(err)) from None
    return tuple(sorted(vals, key=parent.value_index.__getitem__))


def derived_ring(parent, cls, gens):
    """The SubRing or QuotientRing (cls) of parent that gens generate,
    built over parent itself and memoized on it, so construct_ring and
    the helpers give one object per parent and canonical generators."""
    return _derived_ring(parent, cls, canonical_gens(parent, cls.kind, gens))


@memo
def _derived_ring(parent, cls, gens: tuple):
    return cls(parent, gens)


# ---------------------------------------------------------------------------
# predicates and derived sets (finite rings unless noted)


def require_budget(ring, scan: str, count: int):
    """Raise NonEnumerableError before a scan that would visit more than
    UNIT_PAIR_BUDGET pairs or triples."""
    if count > UNIT_PAIR_BUDGET:
        raise NonEnumerableError("%s: the %s visits %d, over the budget %d"
                                 % (ring.spec_text, scan, count, UNIT_PAIR_BUDGET))


@memo
def units(ring) -> SubsetHandle:
    return SubsetHandle(ring, [v for v in ring.values() if ring.has_inverse_v(v)])


@memo
def nonunits(ring) -> SubsetHandle:
    u = units(ring).members
    return SubsetHandle(ring, [v for v in ring.values() if v not in u])


def is_unit(ring, a: Element):
    """Inverse element, or None."""
    inv = ring.is_unit_v(a.v)
    return None if inv is None else Element(ring, inv)


@dataclass(frozen=True)
class NilpotenceResult:
    nilpotent: bool
    index: Optional[int]
    exact: bool
    note: str


def is_nilpotent(ring, a: Element) -> NilpotenceResult:
    """Exact on finite rings: membership in nilpotent_values decides, and
    only a nilpotent has its powers walked, for the index.  On truncated
    models the scan replays in a widened ring: a zero power whose factors
    stayed inside the widened window is genuine, otherwise the verdict is
    flagged bound-relative."""
    if a.v == ring.zero_v:
        return NilpotenceResult(True, 1, True, "zero power reached")
    if not ring.truncated:
        if a.v not in nilpotent_values(ring):
            return NilpotenceResult(False, None, True, "power cycle without zero")
        p, k = a.v, 1
        while p != ring.zero_v:
            p = ring.k_mul(p, a.v)
            k += 1
        return NilpotenceResult(True, k, True, "zero power reached")
    wide = ring.widen()
    av = ring.lift_v(a.v)
    half = wide.precision // 2
    p, clean = av, True
    for k in range(2, NILPOTENT_BOUND + 1):
        p = wide.k_mul(p, av)
        if p == wide.zero_v:
            note = ("zero power reached in widened model"
                    if clean else "zero power reached; truncation artifact possible")
            return NilpotenceResult(True, k, clean, note)
        if max(wide.block_degrees(p)) > half:
            clean = False
    return NilpotenceResult(False, None, False,
                            "no zero power within bound %d at scope" % NILPOTENT_BOUND)


def zero_divisors(ring) -> SubsetHandle:
    """The zero-divisors: a with b*a = 0 for some b != 0 (zero included).
    The ring is commutative, so left and right are one set, and it is the
    nonunits: a finite ring is Dedekind-finite, so r -> r*a is injective
    iff a is a unit."""
    return nonunits(ring)


@memo
def squares(ring) -> dict:
    """The square table v -> v*v of a finite ring in value order, one
    product per value, shared by idempotents and nilpotent_values."""
    mul = ring.k_mul
    return {v: mul(v, v) for v in ring.values()}


@memo
def idempotents(ring) -> SubsetHandle:
    return SubsetHandle(ring, [v for v, sq in squares(ring).items() if sq == v])


@memo
def nilpotent_values(ring) -> frozenset:
    """The nilpotent values of a finite ring, for the radical and the
    Archimedean test.  v is nilpotent iff v^2 is (v^2k = (v^2)^k), so each
    value walks the squaring map v -> v^2 -> ... of the square table until
    it meets 0, a value already decided, whose verdict it takes, or its
    own path: a cycle without 0, which holds no nilpotent, since the
    squares of a nilpotent reach 0 and stay there."""
    sq = squares(ring)
    nil = {ring.zero_v: True}
    for v in sq:
        path = []
        while v not in nil:
            nil[v] = False   # on the path; a cycle back to it keeps False
            path.append(v)
            v = sq[v]
        for p in path:
            nil[p] = nil[v]
    return frozenset(v for v, n in nil.items() if n)


@memo
def jacobson_radical(ring) -> SubsetHandle:
    """The nilpotent values.  A finite commutative ring is Artinian, so its
    radical is nil and equals the nilradical (Lam, A First Course in
    Noncommutative Rings)."""
    return SubsetHandle(ring, nilpotent_values(ring))


@memo
def zero_keys(ring):
    """(key, times, zero): where a scan decides whether products of
    values of ring vanish, key(a*b) = times(key(a), key(b)), and it
    equals zero iff a*b = 0.

    - A finite reduced ring: masks under &.  Bit i of key(v) is set iff
      v*e_i != 0, for the primitive idempotents e_i in value order.  R is
      the product of the R*e_i, each a finite reduced local commutative
      ring and so a field.  Building the masks costs n*m products.
    - F[[x,y]]/(xy): XYQuotientRing.zero_mask_v under &, exact on the
      products of lifted scope values and their twist images in the
      widened copy.
    - Every other ring (not reduced, or a truncated series ring): the
      values themselves under k_mul."""
    if ring.kind == "xyq":
        return ring.zero_mask_v, operator.and_, 0
    z, mul = ring.zero_v, ring.k_mul
    if ring.truncated or nilpotent_values(ring) != {z}:
        return (lambda v: v), mul, z
    idem = [e for e in idempotents(ring).vals if e != z]
    prims = [e for e in idem if not any(f != e and mul(f, e) == f for f in idem)]
    return ({v: sum(1 << i for i, e in enumerate(prims) if mul(v, e) != z)
             for v in ring.values()}.__getitem__, operator.and_, 0)


def principal_power_chain(ring, a: Element):
    """Descending sets R*a^n, stopping at the first repeat.  The ring is
    commutative, so R*a^n = a^n*R and one chain serves both sides.  Each
    set is built from the one before it, R*a^(n+1) = {s*a : s in R*a^n}
    by associativity, so a chain costs |R| plus the sizes of its sets in
    products.  A unit's chain is [R], with no product: r -> r*a is onto.
    Returns (chain, stabilized set)."""
    vals = ring.values()
    if ring.has_inverse_v(a.v):
        whole = SubsetHandle(ring, vals)
        return [whole], whole
    mul, chain, prev = ring.k_mul, [], vals
    while True:
        cur = frozenset(mul(s, a.v) for s in prev)
        if chain and cur == prev:
            break
        chain.append(SubsetHandle(ring, cur))
        prev = cur
        if len(chain) > len(vals) + 1:
            raise RuntimeError("power chain failed to stabilize")
    return chain, chain[-1]


class ScanDomain:
    """The values an exact-or-scope procedure scans or samples.  A finite
    ring scans every value and takes products in itself; a truncated model
    scans its scope values (support <= `support`) and takes products of
    their lifts in the 2x widened copy, so a zero found there is never a
    truncation artifact.  The value list, the widened copy and the lifts
    are each built on first use."""

    def __init__(self, scanned: RingHandle, support: Optional[int]):
        self.scanned = scanned
        self.support = support  # scope support bound; None when exact
        self.exact = support is None
        self.size = scanned.card if self.exact else scanned.scope_size(support)

    @property
    def basis(self) -> str:
        return "exact" if self.exact else "scope"

    def sample_count(self, n: int) -> int:
        """A sampled probe's draw count: all n on a finite ring, a
        twentieth (at least 20) on a truncated model, whose products
        cost far more."""
        return n if self.exact else max(20, n // 20)

    @cached_property
    def values(self) -> list:
        if self.exact:
            return self.scanned.values()
        return self.scanned.scope_values(max_support=self.support)

    @cached_property
    def ring(self) -> RingHandle:
        """Where products are taken."""
        return self.scanned if self.exact else self.scanned.widen()

    @cached_property
    def lifted(self) -> list:
        """The values, lifted into `ring`."""
        if self.exact:
            return self.values
        return [self.scanned.lift_v(v) for v in self.values]

    def note(self, scan: str) -> str:
        if self.exact:
            return "exhaustive " + scan
        return "scope-exact %s, support <= %d" % (scan, self.support)


def scan_domain(ring, support: Optional[int] = None) -> ScanDomain:
    """Cached per ring and support.  The support is capped at the ring's
    bounded support, which is also the default; finite rings ignore it."""
    if not ring.truncated:
        return _scan_domain(ring, None)
    bound = ring.bounded_support()
    return _scan_domain(ring, bound if support is None else min(support, bound))


@memo
def _scan_domain(ring, support: Optional[int]) -> ScanDomain:
    return ScanDomain(ring, support)


@dataclass(frozen=True)
class ReducedResult:
    reduced: bool
    witness: Optional[Element]     # a nonzero square-zero element
    exact: bool
    note: str


@memo
def is_reduced(ring) -> ReducedResult:
    """A ring has a nonzero nilpotent iff it has a nonzero square-zero
    element, so one square scan over the scan domain decides."""
    dom = scan_domain(ring)
    mul, wz = dom.ring.k_mul, dom.ring.zero_v
    for a, la in zip(dom.values, dom.lifted):
        if la != wz and mul(la, la) == wz:
            return ReducedResult(False, Element(ring, a), dom.exact,
                                 "square-zero witness" if dom.exact else
                                 "square-zero witness (exact in widened model)")
    return ReducedResult(True, None, dom.exact, dom.note("square scan"))


@dataclass(frozen=True)
class DomainResult:
    domain: bool
    witness: Optional[tuple]       # (a, b) nonzero with a*b = 0
    exact: bool
    note: str


@memo
def is_domain(ring) -> DomainResult:
    dom = scan_domain(ring)
    if ring.kind == "tser" and is_domain(ring.base).domain:
        # over a domain the lowest terms of two nonzero series multiply to
        # a nonzero term inside the window, so the pair scan finds nothing
        return DomainResult(True, None, dom.exact, dom.note("pair scan"))
    key, times, kz = zero_keys(dom.ring)
    wz = dom.ring.zero_v
    heads = zip(dom.values, dom.lifted)
    if dom.exact:
        # b -> a*b is injective iff a is a unit, so the pair scan's first
        # a is the first nonzero nonunit
        heads = [(a, a) for a in nonunits(ring).vals if a != wz][:1]
    tails = [(b, key(lb)) for b, lb in zip(dom.values, dom.lifted) if lb != wz]
    for a, la in heads:
        if la == wz:
            continue
        ka = key(la)
        for b, kb in tails:
            if times(ka, kb) == kz:
                return DomainResult(
                    False, (Element(ring, a), Element(ring, b)),
                    dom.exact, "zero product witness" if dom.exact else
                    "zero product (exact in widened model)")
    return DomainResult(True, None, dom.exact, dom.note("pair scan"))


def subring_generated(ring, gens):
    """Closure of {0, 1, gens} under ring operations.  Returns the subring
    handle, the embedding into the ambient ring, and a unit-condition report
    listing the ambient units that lie in the subring.  Each is a unit of
    the subring too: a unit of a finite ring has a power for its inverse."""
    sub = derived_ring(ring, SubRing, gens)

    def embed(e: Element) -> Element:
        if e.ring != sub:
            raise RingMismatchError("element not in the subring")
        return Element(ring, e.v)

    shared = [e.text for e in sub.elements() if ring.has_inverse_v(e.v)]
    return sub, embed, {"ambient_units_in_subring": shared}


def quotient_by_ideal(ring, ideal):
    """Quotient by the ideal generated by a SubsetHandle or a generator
    list.  Returns the quotient handle and the projection map.  An Element
    or a SubsetHandle of another ring raises RingMismatchError."""
    quo = derived_ring(ring, QuotientRing, ideal)

    def project(e: Element) -> Element:
        if e.ring != ring:
            raise RingMismatchError("element not in the ambient ring")
        return Element(quo, quo.project_v(e.v))

    return quo, project
