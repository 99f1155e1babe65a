"""Skew polynomials R[u; alpha] and truncated skew power series.

Multiplication follows the left-coefficient convention u*a = alpha(a)*u,
so (sum f_i u^i)(sum g_j u^j) has coefficient sum_{i+j=m} f_i alpha^i(g_j)
at u^m.  Polynomials are exact; series are truncated at a fixed precision
N (coefficients of u^0..u^N).

The outer variable's truncation and any truncation inside the
coefficient ring are independent; both are applied eagerly.  Probes that
could mistake a truncated tail for zero carry a genuine/artifact flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .endos import Endo, build_endo
from .rings import (construct_ring, first_nonzero, last_nonzero, scan_domain,
                    split_top, window_inverse, window_mul)


def _need_side(side: str):
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left', got %r" % side)


def _common(a, b):
    # operands nearly always share their ring and twist objects
    if (a.ring is not b.ring and a.ring != b.ring
            or a.endo is not b.endo and a.endo != b.endo):
        raise ValueError("operands live over different rings or twists")


def _twist(endo):
    # the kernels' twist argument: None spares the identity a call per term
    return None if endo.is_identity else endo.power_apply_v


def _term(endo, x, d, y):
    # x * alpha^d(y): the one product window_mul makes of x at degree d
    return endo.ring.k_mul(x, endo.power_apply_v(d, y))


class SkewPoly:
    """Exact twisted polynomial; coefficients little-endian, trailing
    zeros stripped, the zero polynomial has an empty coefficient tuple.
    Immutable, so the powers computed by power() and the top coefficients
    read by power_is_zero() are kept on it."""

    __slots__ = ("ring", "endo", "coeffs", "_powers", "_tops")

    def __init__(self, ring, endo: Endo, coeffs):
        if endo.ring is not ring and endo.ring != ring:
            raise ValueError("twist acts on a different ring")
        cs = list(coeffs)
        while cs and cs[-1] == ring.zero_v:
            cs.pop()
        self.ring = ring
        self.endo = endo
        self.coeffs = tuple(cs)
        self._powers = None     # self^2, self^3, ... as far as asked for
        self._tops = None       # top coefficients of self, self^2, ...

    @classmethod
    def constant(cls, ring, endo, value):
        return cls(ring, endo, [value])

    @classmethod
    def variable(cls, ring, endo):
        return cls(ring, endo, [ring.zero_v, ring.one_v])

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def order(self) -> Optional[int]:
        return first_nonzero(self.coeffs, self.ring.zero_v)

    def __add__(self, other):
        _common(self, other)
        ring = self.ring
        n = max(len(self.coeffs), len(other.coeffs))
        xs = list(self.coeffs) + [ring.zero_v] * (n - len(self.coeffs))
        ys = list(other.coeffs) + [ring.zero_v] * (n - len(other.coeffs))
        return SkewPoly(ring, self.endo, [ring.k_add(a, b) for a, b in zip(xs, ys)])

    def __neg__(self):
        return SkewPoly(self.ring, self.endo, [self.ring.k_neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _common(self, other)
        if self.is_zero or other.is_zero:
            return SkewPoly(self.ring, self.endo, [])
        limit = self.degree + other.degree
        return SkewPoly(self.ring, self.endo,
                        window_mul(self.ring, self.coeffs, other.coeffs, limit,
                                   _twist(self.endo)))

    def __pow__(self, n: int):
        if n == 0:
            return SkewPoly.constant(self.ring, self.endo, self.ring.one_v)
        return self.power(n)

    def power(self, k: int):
        """self^k for k >= 1, each power the previous one times self.
        Computed on first request and kept, so procedures that walk the
        powers of one polynomial share the products."""
        if k < 1:
            raise ValueError("power() needs an exponent >= 1")
        if k == 1:
            return self
        if self._powers is None:
            self._powers = []
        powers = self._powers
        while len(powers) < k - 1:
            powers.append((powers[-1] if powers else self) * self)
        return powers[k - 2]

    def power_is_zero(self, k: int) -> bool:
        """Whether self^k = 0, for k >= 1.  The top coefficient of
        self^(j+1) = self^j * self is top_certificate(self^j, self) whenever
        that is nonzero, so a chain of one product per power shows the
        powers nonzero; power(k) is computed in full only at and past the
        first power where the chain hits zero."""
        if k < 1:
            raise ValueError("power_is_zero() needs an exponent >= 1")
        if self.is_zero:
            return True
        ring, top, step = self.ring, self.coeffs[-1], self.degree
        tops = self._tops
        if tops is None:
            tops = self._tops = [top]
        # tops[j - 1] is the top coefficient of self^j, of degree j*step
        while len(tops) < k and tops[-1] != ring.zero_v:
            tops.append(_term(self.endo, tops[-1], len(tops) * step, top))
        if k <= len(tops) and tops[k - 1] != ring.zero_v:
            return False
        return self.power(k).is_zero

    def shift(self, k: int = 1):
        """Multiply by u^k on the right."""
        if self.is_zero:
            return self
        return SkewPoly(self.ring, self.endo,
                        [self.ring.zero_v] * k + list(self.coeffs))

    def truncate(self, precision: int) -> "TruncSeries":
        cs = list(self.coeffs[:precision + 1])
        cs += [self.ring.zero_v] * (precision + 1 - len(cs))
        return TruncSeries(self.ring, self.endo, precision, cs)

    def __eq__(self, other):
        return (isinstance(other, SkewPoly) and other.ring == self.ring
                and other.endo == self.endo and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.ring.spec_text, self.endo.text, self.coeffs))

    def to_text(self) -> str:
        cs = self.coeffs if self.coeffs else (self.ring.zero_v,)
        return "[%s]@%s;%s" % (",".join(self.ring.text_of_v(c) for c in cs),
                               self.ring.spec_text, self.endo.text)

    def __repr__(self):
        return self.to_text()


class TruncSeries:
    """Twisted series modulo u^(precision+1)."""

    __slots__ = ("ring", "endo", "precision", "coeffs")

    def __init__(self, ring, endo: Endo, precision: int, coeffs):
        if endo.ring is not ring and endo.ring != ring:
            raise ValueError("twist acts on a different ring")
        if precision < 0:
            raise ValueError("series precision must be >= 0, got %d" % precision)
        cs = list(coeffs)
        if len(cs) > precision + 1:
            raise ValueError("coefficient list longer than the precision window")
        cs += [ring.zero_v] * (precision + 1 - len(cs))
        self.ring = ring
        self.endo = endo
        self.precision = precision
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, ring, endo, value, precision: int):
        return cls(ring, endo, precision, [value])

    @classmethod
    def monomial(cls, ring, endo, k: int, value, precision: int):
        cs = [ring.zero_v] * (precision + 1)
        cs[k] = value
        return cls(ring, endo, precision, cs)

    @property
    def is_zero(self):
        return all(c == self.ring.zero_v for c in self.coeffs)

    def order(self) -> Optional[int]:
        return first_nonzero(self.coeffs, self.ring.zero_v)

    def support(self) -> int:
        """Largest degree with a nonzero coefficient; -1 if zero."""
        return last_nonzero(self.coeffs, self.ring.zero_v)

    def _like(self, coeffs):
        return TruncSeries(self.ring, self.endo, self.precision, coeffs)

    def __add__(self, other):
        self._check(other)
        r = self.ring
        return self._like([r.k_add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._like([self.ring.k_neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return self._like(window_mul(self.ring, self.coeffs, other.coeffs,
                                     self.precision, _twist(self.endo)))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers need series_inverse")
        if n == 0:
            return TruncSeries.constant(self.ring, self.endo, self.ring.one_v,
                                        self.precision)
        acc = self
        for _ in range(n - 1):
            acc = acc * self
        return acc

    def _check(self, other):
        _common(self, other)
        if other.precision != self.precision:
            raise ValueError("precision mismatch")

    def is_unit(self) -> bool:
        # truncation-model semantics: unit iff the constant term is a unit
        return self.ring.has_inverse_v(self.coeffs[0])

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and other.ring == self.ring
                and other.endo == self.endo and other.precision == self.precision
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.ring.spec_text, self.endo.text, self.precision,
                     self.coeffs))

    def to_text(self) -> str:
        return "[%s]@%s;%s;N=%d" % (",".join(self.ring.text_of_v(c)
                                             for c in self.coeffs),
                                    self.ring.spec_text, self.endo.text,
                                    self.precision)

    def __repr__(self):
        return self.to_text()


def top_certificate(p: SkewPoly, q: SkewPoly):
    """p_top * alpha^deg(p)(q_top) for nonzero p and q: the one term of
    p*q at degree deg(p) + deg(q), so its top coefficient and a proof
    that p*q is nonzero whenever it is nonzero.  Zero shows nothing."""
    return _term(p.endo, p.coeffs[-1], p.degree, q.coeffs[-1])


def lowest_certificate(s: TruncSeries, t: TruncSeries):
    """s_o * alpha^o(t_o') for nonzero s and t of orders o and o': the one
    term of s*t at degree o + o', so its lowest coefficient and a proof
    that s*t is nonzero whenever it is nonzero and o + o' is within the
    precision.  Zero (always, past the precision) shows nothing."""
    o, o2 = s.order(), t.order()
    if o + o2 > s.precision:
        return s.ring.zero_v
    return _term(s.endo, s.coeffs[o], o, t.coeffs[o2])


def parse_poly_text(text: str):
    """Parse "[c0,...,cd]@<ringspec>;<endospec>" into a SkewPoly, or the
    same with ";N=<precision>" appended into a TruncSeries."""
    s = text.strip()
    halves = split_top(s, "@")
    if len(halves) != 2:
        raise ValueError("polynomial text needs a single top-level '@': %r" % text)
    body, tail = halves
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError("coefficients must be bracketed: %r" % text)
    tail_parts = split_top(tail, ";")
    if len(tail_parts) == 2:
        ring_text, endo_text = tail_parts
        precision = None
    elif len(tail_parts) == 3 and tail_parts[2].strip().startswith("N="):
        ring_text, endo_text = tail_parts[0], tail_parts[1]
        precision = int(tail_parts[2].strip()[2:])
    else:
        raise ValueError("polynomial text needs ring;endo[;N=prec]: %r" % text)
    ring = construct_ring(ring_text.strip())
    endo = build_endo(ring, endo_text.strip())
    entries = [e for e in split_top(body[1:-1], ",") if e.strip() != ""]
    coeffs = [ring.v_of_text(e) for e in entries]
    if precision is None:
        return SkewPoly(ring, endo, coeffs)
    return TruncSeries(ring, endo, precision, coeffs)


# ---------------------------------------------------------------------------
# inverses


@dataclass(frozen=True)
class GeometricInverseResult:
    series: TruncSeries
    terminated: bool
    index: Optional[int]       # least k with (f*u)^k = 0 exactly, if any
    note: str


def geometric_inverse(f: SkewPoly, precision: int) -> GeometricInverseResult:
    """Inverse of 1 + f*u in the truncated series ring, as the alternating
    sum of exact powers of f*u.  Terminated means some power vanished as
    an exact polynomial, which certifies the inverse is polynomial."""
    return _inverse_of_one_plus(f.shift(1), precision)


def power_windows(g: SkewPoly, precision: int):
    """The coefficient windows 0..precision of g, g^2, g^3, ..., without
    end.  Truncation modulo u^(precision+1) is a ring map on polynomials
    without negative degrees, so each window is the one before times g,
    cut at the precision, and no full power is built."""
    ring, twist = g.ring, _twist(g.endo)
    window = g.coeffs[:precision + 1]
    while True:
        yield window
        window = window_mul(ring, window, g.coeffs, precision, twist)


def _inverse_of_one_plus(g: SkewPoly, precision: int) -> GeometricInverseResult:
    """geometric_inverse for g = f*u: the inverse of 1 + g as the sum of
    the windows of (-g)^k.  g = f*u has a zero constant term, so g^k has
    order at least k and the sum is complete at the first k whose window
    is zero: there g^k is zero, read through g.power_is_zero and shared
    with probes of the same powers, or its order has passed the
    precision."""
    ring, endo = g.ring, g.endo
    zero = ring.zero_v
    acc = [ring.one_v] + [zero] * precision
    for k, window in enumerate(power_windows(g, precision), 1):
        if all(c == zero for c in window):
            break
        # only the nonzero coefficients change acc
        step = ring.k_sub if k % 2 else ring.k_add
        for d, c in enumerate(window):
            if c != zero:
                acc[d] = step(acc[d], c)
    index = k if g.power_is_zero(k) else None
    terminated = index is not None
    acc = TruncSeries(ring, endo, precision, acc)
    one = SkewPoly.constant(ring, endo, ring.one_v)
    lhs = (one + g).truncate(precision)
    unity = one.truncate(precision)
    if lhs * acc != unity or acc * lhs != unity:
        raise RuntimeError("geometric expansion failed to invert 1 + f*u")
    note = ("power (f*u)^%d vanished exactly" % index if terminated
            else "no exact zero power within the precision window")
    return GeometricInverseResult(acc, terminated, index, note)


def series_inverse(g: TruncSeries) -> TruncSeries:
    """Two-sided inverse of a series whose constant term is a unit,
    computed degree by degree.  Raises ValueError otherwise."""
    ring, endo = g.ring, g.endo
    h = window_inverse(ring, g.coeffs, _twist(endo))
    if h is None:
        raise ValueError("series constant term %s is not a unit"
                         % ring.text_of_v(g.coeffs[0]))
    out = TruncSeries(ring, endo, g.precision, h)
    unity = TruncSeries.constant(ring, endo, ring.one_v, g.precision)
    if g * out != unity or out * g != unity:
        raise RuntimeError("series inversion check failed")
    return out


# ---------------------------------------------------------------------------
# nilpotency probe


@dataclass(frozen=True)
class ProbeResult:
    zero_power_found: bool
    index: Optional[int]
    genuine: bool              # False means a truncation artifact is possible
    note: str


def nilpotency_probe(f, bound: int = 16) -> ProbeResult:
    """Search powers f^k for k <= bound.

    Exact for polynomials, read through f.power_is_zero, so the powers
    and top coefficients of f found before are not found again.  For
    truncated series the verdict is genuine only if every intermediate
    support stayed within half the precision window (and, when the
    coefficient ring is itself truncated, a replay with widened
    coefficients still vanishes)."""
    if isinstance(f, SkewPoly):
        for k in range(2, bound + 2):
            if f.power_is_zero(k):
                return ProbeResult(True, k, True, "exact zero power")
        return ProbeResult(False, None, True,
                           "no zero power up to exponent %d" % (bound + 1))
    half = f.precision // 2
    clean = f.support() <= half
    power = f
    index = None
    for k in range(2, bound + 2):
        power = power * f
        if power.is_zero:
            index = k
            break
        if power.support() > half:
            clean = False
    if index is None:
        return ProbeResult(False, None, False,
                           "no zero power up to exponent %d at this precision"
                           % (bound + 1))
    if clean and f.ring.truncated:
        clean = _widened_replay_is_zero(f, index)
    note = ("zero power with supports inside the half-precision window"
            if clean else "zero power; truncation artifact possible")
    return ProbeResult(True, index, clean, note)


def _widened_replay_is_zero(f: TruncSeries, index: int) -> bool:
    ring = f.ring
    wide = ring.widen()
    wendo = f.endo.on_widened(wide)
    inner_half = wide.precision // 2
    lifted = TruncSeries(wide, wendo, f.precision * 2,
                         [ring.lift_v(c, wide) for c in f.coeffs])
    power = lifted
    for _ in range(index - 1):
        power = power * lifted
        for c in power.coeffs:
            if c != wide.zero_v and max(wide.block_degrees(c)) > inner_half:
                return False
    return power.is_zero


# ---------------------------------------------------------------------------
# divisibility solver


@dataclass(frozen=True)
class DivisibilityResult:
    status: str                # "found" | "none" | "budget-exhausted"
    h: Optional[TruncSeries]
    nodes: int
    certificate: str


def solve_right_divisibility(f: TruncSeries, g: TruncSeries, n: int,
                             side: str = "right",
                             node_limit: int = 200_000) -> DivisibilityResult:
    """Find h with f = h * g^n (side="right") or f = g^n * h ("left") in
    the truncated ring, by degree-by-degree backtracking over coefficient
    candidates.  Returns the lexicographically least witness under the
    ring's enumeration order, a proof of nonexistence at this precision,
    or a distinct budget-exhausted status."""
    f._check(g)
    _need_side(side)
    if n < 1:
        raise ValueError("power must be >= 1")
    ring, endo = f.ring, f.endo
    N = f.precision
    G = g ** n
    universe = scan_domain(ring).values

    # twisted copies of G's coefficients, filled on demand
    twisted: dict = {}

    def tg(j: int, d: int):
        got = twisted.get((j, d))
        if got is None:
            got = endo.power_apply_v(j, G.coeffs[d])
            twisted[(j, d)] = got
        return got

    # candidate rows per distinct multiplier: multiplier -> residual -> [c...]
    rows: dict = {}

    def candidates(m: int, residual):
        mult = tg(m, 0) if side == "right" else G.coeffs[0]
        row = rows.get((side, mult))
        if row is None:
            row = {}
            for c in universe:
                prod = (ring.k_mul(c, mult) if side == "right"
                        else ring.k_mul(mult, c))
                row.setdefault(prod, []).append(c)
            rows[(side, mult)] = row
        return row.get(residual, ())

    def residual(m: int, h):
        acc = f.coeffs[m]
        for j in range(m):
            hj = h[j]
            if hj == ring.zero_v:
                continue
            if side == "right":
                term = ring.k_mul(hj, tg(j, m - j))
            else:
                gi = G.coeffs[m - j]
                term = (ring.k_mul(gi, endo.power_apply_v(m - j, hj))
                        if gi != ring.zero_v else ring.zero_v)
            acc = ring.k_sub(acc, term)
        return acc

    h = [ring.zero_v] * (N + 1)
    nodes = 0

    def dfs(m: int):
        nonlocal nodes
        if m > N:
            return True
        r = residual(m, h)
        for c in candidates(m, r):
            nodes += 1
            if nodes > node_limit:
                raise _Budget()
            h[m] = c
            if dfs(m + 1):
                return True
        h[m] = ring.zero_v
        return False

    try:
        found = dfs(0)
    except _Budget:
        return DivisibilityResult("budget-exhausted", None, nodes,
                                  "node limit %d reached" % node_limit)
    if not found:
        return DivisibilityResult("none", None, nodes,
                                  "backtracking exhausted all coefficient choices")
    out = TruncSeries(ring, endo, N, h)
    check = out * G if side == "right" else G * out
    if check != f:
        raise RuntimeError("divisibility witness failed its replay")
    return DivisibilityResult("found", out, nodes, "witness replayed")


class _Budget(Exception):
    pass
