"""Built-in instance registry and run configuration.

Every entry pairs a coefficient-ring spec with a twist spec.  Entry ids
append the twist after "+" when it is not the identity, so the plain
ring spec doubles as the id of its untwisted entry.
"""

from dataclasses import dataclass

from .endos import build_endo
from .rings import construct_ring

FORMATS = ("json", "text")


@dataclass(frozen=True)
class RegistryEntry:
    id: str
    ring_spec: str
    endo_spec: str
    provenance: str

    def build(self):
        ring = construct_ring(self.ring_spec)
        return ring, build_endo(ring, self.endo_spec)


def _entry(ring_spec: str, endo_spec: str, provenance: str) -> RegistryEntry:
    suffix = "" if endo_spec == "endo:id" else "+" + endo_spec
    return RegistryEntry(ring_spec + suffix, ring_spec, endo_spec, provenance)


ENTRIES = (
    _entry("zmod:6", "endo:id", "calibration: reduced non-Archimedean"),
    _entry("zmod:8", "endo:id", "calibration: Archimedean, not reduced"),
    _entry("zmod:12", "endo:id",
           "calibration: neither reduced nor Archimedean"),
    _entry("gf:2:2", "endo:id", "calibration: field"),
    _entry("gf:2:2", "endo:frob", "calibration: field with squaring twist"),
    _entry("gf:5:1", "endo:id", "calibration: prime field"),
    _entry("prod(zmod:2,zmod:2)", "endo:id",
           "calibration: regular, not a division ring"),
    _entry("prod(zmod:2,zmod:2)", "endo:diag",
           "calibration: collapsing twist, not compatible"),
    _entry("prod(zmod:2,zmod:3)", "endo:id",
           "calibration: mixed-characteristic product"),
    _entry("xyq:gf:2:1:N=8", "endo:id", "Example 4.8"),
    _entry("xyq:gf:2:1:N=8", "endo:xsq", "Example 4.9"),
)


def registry_entries():
    return ENTRIES


def entry_ids():
    return tuple(e.id for e in ENTRIES)


def find_entry(entry_id: str):
    for e in ENTRIES:
        if e.id == entry_id:
            return e
    return None


def startup_self_check():
    """Build every entry's ring and twist before any suite runs;
    construction errors propagate to the caller."""
    for e in ENTRIES:
        e.build()


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    precision: int = 16
    depth: int = 5
    budget: int = 10_000
    format: str = "json"
    jobs: int = 1

    def validated(self) -> "RunConfig":
        if self.precision < 2:
            raise ValueError("precision must be >= 2, got %d" % self.precision)
        if self.depth < 1:
            raise ValueError("depth must be >= 1, got %d" % self.depth)
        if self.budget < 1:
            raise ValueError("budget must be >= 1, got %d" % self.budget)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1, got %d" % self.jobs)
        if self.format not in FORMATS:
            raise ValueError("format must be one of %s, got %r"
                             % ("/".join(FORMATS), self.format))
        return self
