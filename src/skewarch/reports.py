"""Deterministic report validation, JSON serialization, text rendering.

JSON is the machine contract; the text rendering is derived from the
same report dicts and embeds identical witness data.  Serialization is
insertion-ordered and float-free, so equal run configurations yield
byte-identical output.
"""

import json

from .props import STATUSES
from .registry import RunConfig
from .suites import REPORT_FIELDS

SCHEMA_VERSION = 1


class ReportShapeError(ValueError):
    pass


def _walk(obj, path: str):
    if obj is None or isinstance(obj, (str, bool)):
        return
    if isinstance(obj, float):
        raise ReportShapeError("float at %s: %r" % (path, obj))
    if isinstance(obj, int):
        return
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _walk(v, "%s[%d]" % (path, i))
        return
    if isinstance(obj, dict):
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ReportShapeError("non-string key at %s: %r" % (path, k))
            _walk(v, "%s.%s" % (path, k))
        return
    raise ReportShapeError("unserializable value at %s: %r" % (path, obj))


def validate_report(report: dict) -> None:
    if tuple(report) != REPORT_FIELDS:
        raise ReportShapeError("report fields must be %s in order, got %s"
                               % (list(REPORT_FIELDS), list(report)))
    if report["status"] not in STATUSES:
        raise ReportShapeError("unknown status %r" % report["status"])
    if not isinstance(report["certificate"], str):
        raise ReportShapeError("certificate must be a string")
    tags = report["theorem_tags"]
    if not isinstance(tags, list) or \
            any(not isinstance(t, str) for t in tags):
        raise ReportShapeError("theorem_tags must be a list of strings")
    _walk(report["witness"], "witness")


def config_echo(config: RunConfig) -> dict:
    # only the fields that shape verdict content; format and jobs alter
    # presentation and scheduling, never the reports
    return {"seed": config.seed, "precision": config.precision,
            "depth": config.depth, "budget": config.budget}


def render_json(reports, config: RunConfig) -> str:
    for r in reports:
        validate_report(r)
    doc = {"schema": SCHEMA_VERSION, "config": config_echo(config),
           "reports": list(reports)}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def render_list_json(entries) -> str:
    doc = {"schema": SCHEMA_VERSION,
           "entries": [{"id": e.id, "ring": e.ring_spec, "endo": e.endo_spec,
                        "provenance": e.provenance} for e in entries]}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def render_list_text(entries) -> str:
    width = max(len(e.id) for e in entries)
    lines = ["%-*s  %s" % (width, e.id, e.provenance) for e in entries]
    return "\n".join(lines) + "\n"


def _witness_lines(obj, indent: int):
    pad = "  " * indent
    if isinstance(obj, dict):
        out = []
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                out.append("%s%s:" % (pad, k))
                out.extend(_witness_lines(v, indent + 1))
            else:
                out.append("%s%s: %s" % (pad, k, json.dumps(v,
                                                            ensure_ascii=False)))
        return out
    if isinstance(obj, list):
        out = []
        for v in obj:
            if isinstance(v, (dict, list)):
                out.append(pad + "-")
                out.extend(_witness_lines(v, indent + 1))
            else:
                out.append("%s- %s" % (pad, json.dumps(v,
                                                       ensure_ascii=False)))
        return out
    return [pad + json.dumps(obj, ensure_ascii=False)]


def render_report_text(report: dict) -> str:
    validate_report(report)
    lines = ["%s / %s: %s" % (report["entry"], report["suite"],
                              report["status"])]
    if report["theorem_tags"]:
        lines.append("  tags: %s" % ", ".join(report["theorem_tags"]))
    lines.append("  certificate: %s" % report["certificate"])
    if report["witness"] is not None:
        lines.append("  witness:")
        lines.extend(_witness_lines(report["witness"], 2))
    return "\n".join(lines) + "\n"


def render_text(reports) -> str:
    return "".join(render_report_text(r) for r in reports)
