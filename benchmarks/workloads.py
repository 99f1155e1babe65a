"""The benchmark's four workloads: inputs, work and output checks.

Each workload is an object with four steps, which a pass runs in order:

- ``setup()``: construction and validation of every ring and twist the
  workload uses (timed, with the imports, as ``setup_s``);
- ``prepare()``: draws the inputs from the seed (untimed);
- ``work()``: the calls into skewarch (timed as ``wall_s``/``cpu_s``);
- ``check(reference)``: returns (attempted, failures, digest).  An
  operation fails when it raised, or when its output differs from the
  recorded reference or from an independent check written here.

Only public entry points are called: ``cli.main``,
``registry.startup_self_check``, ``construct_ring``, ``build_endo`` and
the ``rings``/``props``/``skew`` functions.  Modules are referenced as
``module.function`` at call time, so the traced pass sees the wrappers
it installs.  Inputs come from ``random.Random(seed)``; the program
receives only the generated inputs.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import random

from skewarch import cli, endos, props, registry, reports, rings, skew

MATRIX_REPORTS = 198       # 11 registry entries x 18 suites


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(obj):
    """JSON-ready form of a skewarch result, with elements as text."""
    if isinstance(obj, rings.Element):
        return obj.text
    if isinstance(obj, rings.SubsetHandle):
        return obj.texts()
    if dataclasses.is_dataclass(obj):
        return {f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (skew.TruncSeries, skew.SkewPoly)):
        return obj.to_text()
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()}
    return obj


def digest(obj) -> str:
    return sha256(json.dumps(canonical(obj), ensure_ascii=False))


class Outcome:
    """Results of the timed calls, in order: (label, value or exception)."""

    def __init__(self):
        self.rows = []

    def call(self, label, fn, *args):
        try:
            value = fn(*args)
        except Exception as exc:  # an operation that raises has failed
            value = exc
        self.rows.append((label, value))


# ---------------------------------------------------------------------------
# matrix and matrix-j2: the CLI command users run


class Matrix:
    """``skewarch run --entry all --suite all --seed <seed> [--jobs N]``,
    called in process through ``cli.main`` with stdout captured."""

    def __init__(self, seed: int, jobs: int):
        self.seed = seed
        self.jobs = jobs
        self.code = None
        self.text = ""

    def setup(self):
        registry.startup_self_check()

    def prepare(self):
        self.argv = ["run", "--entry", "all", "--suite", "all",
                     "--seed", str(self.seed), "--jobs", str(self.jobs)]

    def work(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.code = cli.main(self.argv)
        self.text = out.getvalue()

    def check(self, reference):
        """One operation per report.  A wrong exit code, wrong bytes or a
        wrong report count fails them all; otherwise each report must
        pass the program's own validator."""
        text_digest = sha256(self.text)
        recorded = reference.get("matrix", {}).get(str(self.seed))
        problem, got = None, []
        if self.code != 0:
            problem = "exit code %r" % self.code
        elif recorded is not None and recorded != text_digest:
            problem = ("output sha256 %s differs from the recorded %s"
                       % (text_digest, recorded))
        else:
            try:
                got = json.loads(self.text)["reports"]
            except (ValueError, KeyError, TypeError) as exc:
                problem = "output is not a report document: %r" % exc
            else:
                if len(got) != MATRIX_REPORTS:
                    problem = "%d reports, expected %d" % (len(got),
                                                           MATRIX_REPORTS)
        if problem is not None:
            return MATRIX_REPORTS, [problem] * MATRIX_REPORTS, text_digest
        failures = []
        for report in got:
            try:
                reports.validate_report(report)
            except (ValueError, KeyError, TypeError) as exc:
                failures.append("invalid report: %r" % exc)
        return MATRIX_REPORTS, failures, text_digest


# ---------------------------------------------------------------------------
# scan: exact decision procedures on larger enumerable rings

SCAN_RINGS = ("zmod:720", "zmod:1024", "gf:2:8", "prod(zmod:16,gf:2:4)")
SCAN_CALLS = (
    ("units", lambda r: rings.units(r)),
    ("jacobson_radical", lambda r: rings.jacobson_radical(r)),
    ("zero_divisors", lambda r: rings.zero_divisors(r)),
    ("is_domain", lambda r: rings.is_domain(r)),
    ("is_reduced", lambda r: rings.is_reduced(r)),
    ("idempotents", lambda r: rings.idempotents(r)),
    ("is_archimedean.right", lambda r: props.is_archimedean(r, "right")),
    ("is_archimedean.left", lambda r: props.is_archimedean(r, "left")),
)
SCAN_ELEMENTS = 4          # seed-drawn elements per ring


def _radical_of(n: int) -> int:
    rad, p = 1, 2
    while n > 1:
        if n % p == 0:
            rad *= p
            while n % p == 0:
                n //= p
        p += 1
    return rad


def finite_structure(ring):
    """(units, Jacobson radical, idempotents, reduced?) of a finite
    commutative ring built from zmod, gf and products, derived from
    number theory and field structure instead of a scan."""
    if ring.kind == "zmod":
        n = ring.n
        rad = _radical_of(n)
        return ({v for v in range(n) if math.gcd(v, n) == 1},
                {v for v in range(n) if v % rad == 0},
                {v for v in range(n) if v * v % n == v},
                rad == n)
    if ring.kind == "gf":
        return (set(ring.values()) - {ring.zero_v}, {ring.zero_v},
                {ring.zero_v, ring.one_v}, True)
    if ring.kind == "prod":
        parts = [finite_structure(f) for f in ring.factors]
        return tuple(set(itertools.product(*(p[i] for p in parts)))
                     for i in range(3)) + (all(p[3] for p in parts),)
    raise ValueError("no structure oracle for %s" % ring.spec_text)


def power_chain_oracle(ring, a):
    """Stabilized set of R*a^n and whether a is nilpotent, by plain
    iteration over the ring's values."""
    vals = ring.values()
    power, prev = a, None
    while True:
        cur = frozenset(ring.k_mul(r, power) for r in vals)
        if cur == prev:
            break
        prev = cur
        power = ring.k_mul(power, a)
    p, nilpotent = a, False
    for _ in range(len(vals)):
        if p == ring.zero_v:
            nilpotent = True
            break
        p = ring.k_mul(p, a)
    return prev, nilpotent


class Scan:
    def __init__(self, seed: int, jobs: int):
        self.seed = seed
        self.rings = []
        self.outcome = Outcome()

    def setup(self):
        self.rings = [rings.construct_ring(spec) for spec in SCAN_RINGS]

    def prepare(self):
        rnd = random.Random(self.seed)
        self.elements = []
        for ring in self.rings:
            vals = ring.values()
            self.elements.append([ring.element(vals[rnd.randrange(len(vals))])
                                  for _ in range(SCAN_ELEMENTS)])

    def work(self):
        call = self.outcome.call
        for ring, elements in zip(self.rings, self.elements):
            for name, fn in SCAN_CALLS:
                call((ring.spec_text, name), fn, ring)
            for a in elements:
                call((ring.spec_text, "principal_power_chain", a.text),
                     rings.principal_power_chain, ring, a)
                call((ring.spec_text, "is_nilpotent", a.text),
                     rings.is_nilpotent, ring, a)

    def _independent(self, ring, structure, name, value, extra):
        """Mismatch message of one result against the structure oracles."""
        units, radical, idem, reduced = structure
        nonunits = set(ring.values()) - units
        expected = {
            "units": units,
            "jacobson_radical": radical,
            "idempotents": idem,
            # in a finite commutative ring every nonunit divides zero
            "zero_divisors": nonunits,
        }
        if name in expected:
            if set(value.vals) != expected[name]:
                return "%s: %d elements, expected %d" % (
                    name, len(value), len(expected[name]))
        elif name == "is_domain":
            if value.domain != (nonunits == {ring.zero_v}):
                return "is_domain: %r" % value.domain
        elif name == "is_reduced":
            if value.reduced != reduced:
                return "is_reduced: %r" % value.reduced
        elif name in ("principal_power_chain", "is_nilpotent"):
            stabilized, nilpotent = power_chain_oracle(
                ring, ring.from_text(extra).v)
            if name == "principal_power_chain":
                if set(value[1].vals) != stabilized:
                    return "power chain of %s stabilizes elsewhere" % extra
            elif value.nilpotent != nilpotent:
                return "is_nilpotent(%s): %r" % (extra, value.nilpotent)
        return None

    def check(self, reference):
        recorded = reference.get("scan", {})
        calls = recorded.get("calls", {})
        failures = []
        by_spec = {ring.spec_text: (ring, finite_structure(ring))
                   for ring in self.rings}
        for label, value in self.outcome.rows:
            spec, name = label[0], label[1]
            if isinstance(value, Exception):
                failures.append("%s raised %r" % (label, value))
                continue
            bad = self._independent(*by_spec[spec], name, value,
                                    label[2] if len(label) > 2 else None)
            want = calls.get(spec, {}).get(name)
            if bad is None and want is not None and digest(value) != want:
                bad = "%s differs from the recorded verdict" % name
            if bad is not None:
                failures.append("%s: %s" % (spec, bad))
        whole = digest([[list(label), value]
                        for label, value in self.outcome.rows
                        if not isinstance(value, Exception)])
        want = recorded.get("seeds", {}).get(str(self.seed))
        if want is not None and want != whole:
            failures.append("scan digest %s differs from the recorded %s"
                            % (whole, want))
        return len(self.outcome.rows), failures, whole

    def call_digests(self):
        """Digests of the seed-independent verdicts, for the reference."""
        out = {}
        for (spec, name, *rest), value in self.outcome.rows:
            if not rest:
                out.setdefault(spec, {})[name] = digest(value)
        return out


# ---------------------------------------------------------------------------
# arith: dense twisted series arithmetic

ARITH_PAIRS = (
    ("xyq:gf:2:1:N=8", "endo:xsq"),
    ("tser(gf:5:1,N=16)", "endo:id"),
    ("gf:2:4", "endo:frob"),
    ("prod(zmod:2,zmod:3)", "endo:id"),
)
ARITH_PRECISIONS = (8, 16, 32)
ARITH_ROUNDS = 12          # operand sets per (pair, precision)
ARITH_POWER = 3


def sample_pool(ring):
    """Coefficient pool: every value of a finite ring, the support <= 2
    slice of the scope for truncated models (the pool the suites sample
    from)."""
    if ring.truncated:
        return ring.scope_values(max_support=2)
    return ring.values()


def schoolbook(ring, endo, xs, ys, n):
    """Twisted product sum_{i+j=m} x_i alpha^i(y_j), truncated at u^n,
    with alpha^i applied one step at a time."""
    twisted = [list(ys)]
    for _ in range(n):
        twisted.append([endo.apply_v(y) for y in twisted[-1]])
    out = [ring.zero_v] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] = ring.k_add(out[i + j],
                                    ring.k_mul(xs[i], twisted[i][j]))
    return out


class Arith:
    def __init__(self, seed: int, jobs: int):
        self.seed = seed
        self.pairs = []
        self.outcome = Outcome()

    def setup(self):
        for ring_spec, endo_spec in ARITH_PAIRS:
            ring = rings.construct_ring(ring_spec)
            self.pairs.append((ring, endos.build_endo(ring, endo_spec)))

    def prepare(self):
        rnd = random.Random(self.seed)
        self.operands = []
        self.checked = set()
        for ring, endo in self.pairs:
            nonzero = [v for v in sample_pool(ring) if v != ring.zero_v]
            units = [v for v in nonzero if ring.is_unit_v(v) is not None]
            for n in ARITH_PRECISIONS:
                self.checked.add((ring.spec_text, n,
                                  rnd.randrange(ARITH_ROUNDS)))
                for r in range(ARITH_ROUNDS):
                    a = [rnd.choice(units)] + [rnd.choice(nonzero)
                                               for _ in range(n)]
                    b = [rnd.choice(nonzero) for _ in range(n + 1)]
                    self.operands.append(
                        (r, skew.TruncSeries(ring, endo, n, a),
                         skew.TruncSeries(ring, endo, n, b)))

    def work(self):
        call = self.outcome.call
        for r, a, b in self.operands:
            call("product", lambda: a * b)
            call("power", lambda: a ** ARITH_POWER)
            call("inverse", skew.series_inverse, a)

    def _independent(self, a, b, product, power, inverse):
        ring, endo, n = a.ring, a.endo, a.precision
        out = []
        if list(product.coeffs) != schoolbook(ring, endo, a.coeffs,
                                              b.coeffs, n):
            out.append("product")
        acc = [ring.one_v] + [ring.zero_v] * n
        for _ in range(ARITH_POWER):
            acc = schoolbook(ring, endo, acc, a.coeffs, n)
        if list(power.coeffs) != acc:
            out.append("power")
        one = [ring.one_v] + [ring.zero_v] * n
        if schoolbook(ring, endo, a.coeffs, inverse.coeffs, n) != one or \
                schoolbook(ring, endo, inverse.coeffs, a.coeffs, n) != one:
            out.append("inverse")
        return out

    def check(self, reference):
        rows = self.outcome.rows
        failures = ["%s raised %r" % (label, value)
                    for label, value in rows if isinstance(value, Exception)]
        for k, (r, a, b) in enumerate(self.operands):
            if (a.ring.spec_text, a.precision, r) not in self.checked:
                continue
            values = [value for _, value in rows[3 * k:3 * k + 3]]
            if any(isinstance(v, Exception) for v in values):
                continue
            for name in self._independent(a, b, *values):
                failures.append("%s N=%d round %d: %s differs from the "
                                "schoolbook product" % (a.ring.spec_text,
                                                        a.precision, r, name))
        whole = digest([value for _, value in rows
                        if not isinstance(value, Exception)])
        want = reference.get("arith", {}).get(str(self.seed))
        if want is not None and want != whole:
            failures.append("arith digest %s differs from the recorded %s"
                            % (whole, want))
        return len(rows), failures, whole


WORKLOADS = {"matrix": Matrix, "matrix-j2": Matrix, "scan": Scan,
             "arith": Arith}
