import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from skewarch import cli
from skewarch.props import FAILS, HOLDS, STATUSES
from skewarch.registry import (
    ENTRIES,
    RunConfig,
    _entry,
    entry_ids,
    find_entry,
    registry_entries,
    startup_self_check,
)
from skewarch.reports import (
    ReportShapeError,
    config_echo,
    render_json,
    render_list_json,
    render_list_text,
    render_report_text,
    validate_report,
)
from skewarch.rings import RingConstructionError
from skewarch.suites import (
    REPORT_FIELDS,
    SUITE_IDS,
    report_contradicts_predictions,
    run_one,
)

EXPECTED_ENTRY_IDS = (
    "zmod:6",
    "zmod:8",
    "zmod:12",
    "gf:2:2",
    "gf:2:2+endo:frob",
    "gf:5:1",
    "prod(zmod:2,zmod:2)",
    "prod(zmod:2,zmod:2)+endo:diag",
    "prod(zmod:2,zmod:3)",
    "xyq:gf:2:1:N=8",
    "xyq:gf:2:1:N=8+endo:xsq",
)

EXPECTED_SUITE_IDS = (
    "arithmetic", "lemma-2-3", "prop-2-2", "remark-2-4", "prop-3-1",
    "cor-3-2", "thm-3-3", "thm-3-4", "prop-4-1", "lemma-4-2", "lemma-4-3",
    "thm-4-4", "thm-4-5", "cor-4-6", "prop-4-7", "examples-4-8-9",
    "classify", "falsify",
)

_LETTER = {
    "H": "holds",
    "F": "fails",
    "N": "hypothesis-not-met",
    "I": "inconclusive-at-scale",
    "B": "holds-by-theorem",
}

# Frozen status of every (entry, suite) cell at seed 42 with default
# precision/depth/budget; one letter per suite in SUITE_IDS order.
STATUS_MATRIX = {
    "zmod:6":                        "H N N H H N N N H H H N N N H N H F",
    "zmod:8":                        "H H H N H N N N H H N I I I N N H I",
    "zmod:12":                       "H N N N H N N N H H N N N N H N H F",
    "gf:2:2":                        "H H H H H H B B H H H B B B N N H B",
    "gf:2:2+endo:frob":              "H H H H H N B B H H H B B N N N H B",
    "gf:5:1":                        "H H H H H H B B H H H B B B N N H B",
    "prod(zmod:2,zmod:2)":           "H N N H H N N N H H H N N N H N H F",
    "prod(zmod:2,zmod:2)+endo:diag": "H N N H H N N N H H N N N N H N H F",
    "prod(zmod:2,zmod:3)":           "H N N H H N N N H H H N N N H N H F",
    "xyq:gf:2:1:N=8":                "H B N N H I N N H H H B B B N B H B",
    "xyq:gf:2:1:N=8+endo:xsq":       "H B N N H N N N H H H B B N N B H B",
}


def _clean_env(extra=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SKEWARCH_")}
    if extra:
        env.update(extra)
    return env


def _run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "skewarch.cli", *args],
        capture_output=True, text=True, env=_clean_env(env_extra))


# ---------------------------------------------------------------------------
# registry


def test_entry_ids_frozen():
    assert entry_ids() == EXPECTED_ENTRY_IDS
    assert len(set(entry_ids())) == len(ENTRIES) == 11
    assert registry_entries() is ENTRIES


def test_entry_id_appends_nonidentity_twist():
    for e in ENTRIES:
        if e.endo_spec == "endo:id":
            assert e.id == e.ring_spec
        else:
            assert e.id == e.ring_spec + "+" + e.endo_spec


def test_find_entry():
    for eid in EXPECTED_ENTRY_IDS:
        assert find_entry(eid).id == eid
    assert find_entry("zmod:7") is None
    assert find_entry("") is None


def test_two_variable_entries_carry_example_provenance():
    assert find_entry("xyq:gf:2:1:N=8").provenance == "Example 4.8"
    assert find_entry("xyq:gf:2:1:N=8+endo:xsq").provenance == "Example 4.9"
    for e in ENTRIES:
        if not e.ring_spec.startswith("xyq:"):
            assert e.provenance.startswith("calibration:")


def test_startup_self_check_constructs_every_entry():
    startup_self_check()
    for e in ENTRIES:
        ring, endo = e.build()
        assert endo.apply_v(ring.one_v) == ring.one_v


def test_run_config_defaults_and_validation():
    config = RunConfig()
    assert (config.seed, config.precision, config.depth,
            config.budget, config.format, config.jobs) == \
        (0, 16, 5, 10_000, "json", 1)
    assert config.validated() is config
    with pytest.raises(ValueError, match="precision must be >= 2"):
        RunConfig(precision=1).validated()
    with pytest.raises(ValueError, match="depth must be >= 1"):
        RunConfig(depth=0).validated()
    with pytest.raises(ValueError, match="budget must be >= 1"):
        RunConfig(budget=0).validated()
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        RunConfig(jobs=-2).validated()
    with pytest.raises(ValueError, match="format must be one of"):
        RunConfig(format="xml").validated()


# ---------------------------------------------------------------------------
# suite driver


def test_suite_ids_frozen():
    assert SUITE_IDS == EXPECTED_SUITE_IDS
    assert len(set(SUITE_IDS)) == 18


def test_report_fields_frozen():
    assert REPORT_FIELDS == ("entry", "suite", "status", "witness",
                             "certificate", "theorem_tags")


def test_run_one_rejects_unknown_suite():
    with pytest.raises(KeyError, match="unknown suite id"):
        run_one(find_entry("zmod:6"), "thm-9-9", RunConfig())


def test_run_one_report_shape():
    report = run_one(find_entry("zmod:8"), "lemma-2-3", RunConfig(seed=42))
    assert tuple(report) == REPORT_FIELDS
    assert report["entry"] == "zmod:8"
    assert report["suite"] == "lemma-2-3"
    assert report["status"] in STATUSES
    assert isinstance(report["theorem_tags"], list)
    validate_report(report)


def test_full_matrix_matches_frozen_statuses(seed42_matrix):
    # the central regression: every cell of the registry x suite matrix
    # at seed 42, validated and contradiction-free
    reports = iter(seed42_matrix.reports)
    for entry in registry_entries():
        expected = [_LETTER[c] for c in STATUS_MATRIX[entry.id].split()]
        got = []
        for suite_id in SUITE_IDS:
            report = next(reports)
            assert (report["entry"], report["suite"]) == (entry.id, suite_id)
            validate_report(report)
            assert not report_contradicts_predictions(entry, report), \
                (entry.id, suite_id)
            got.append(report["status"])
        assert got == expected, entry.id
    assert next(reports, None) is None


def test_expected_falsifier_chains_do_not_contradict():
    # falsify is allowed to fail exactly when no series theorem predicts
    # a reduced Archimedean outcome
    entry = find_entry("zmod:6")
    report = run_one(entry, "falsify", RunConfig(seed=42))
    assert report["status"] == FAILS
    assert report_contradicts_predictions(entry, report) is False


def test_nonfalsify_failure_contradicts():
    report = {"entry": "zmod:6", "suite": "thm-4-4", "status": FAILS,
              "witness": None, "certificate": "fabricated",
              "theorem_tags": []}
    assert report_contradicts_predictions(find_entry("zmod:6"), report) is True


def test_falsify_failure_contradicts_when_theorems_predict_yes():
    # gf:2:2+endo:frob satisfies every series hypothesis, so a falsifier
    # chain there would refute the predictions
    report = {"entry": "gf:2:2+endo:frob", "suite": "falsify",
              "status": FAILS, "witness": None, "certificate": "fabricated",
              "theorem_tags": []}
    assert report_contradicts_predictions(find_entry("gf:2:2+endo:frob"), report) is True


def test_falsify_failure_outside_the_registry_follows_its_predictions():
    # the entry passed in is judged, registered or not: gf:3:1 is a field,
    # so its series ring is predicted reduced and Archimedean
    entry = _entry("gf:3:1", "endo:id", "drawn")
    assert find_entry(entry.id) is None
    report = {"entry": entry.id, "suite": "falsify", "status": FAILS,
              "witness": None, "certificate": "fabricated",
              "theorem_tags": []}
    assert report_contradicts_predictions(entry, report) is True


def test_passing_reports_never_contradict():
    for status in STATUSES:
        if status == FAILS:
            continue
        report = {"entry": "zmod:6", "suite": "thm-4-4", "status": status,
                  "witness": None, "certificate": "fabricated",
                  "theorem_tags": []}
        assert report_contradicts_predictions(find_entry("zmod:6"), report) is False


# ---------------------------------------------------------------------------
# report rendering


def test_render_json_shape_and_determinism():
    config = RunConfig(seed=42)
    reports = [run_one(find_entry("zmod:6"), "lemma-2-3", config),
               run_one(find_entry("gf:5:1"), "thm-4-4", config)]
    text = render_json(reports, config)
    assert text == render_json(reports, config)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["schema"] == 1
    assert doc["config"] == {"seed": 42, "precision": 16, "depth": 5,
                             "budget": 10_000}
    assert [tuple(r) for r in doc["reports"]] == [REPORT_FIELDS] * 2


def test_config_echo_excludes_presentation_fields():
    assert config_echo(RunConfig(format="text", jobs=4)) == \
        config_echo(RunConfig())


def test_validate_report_rejects_bad_shapes():
    good = run_one(find_entry("gf:5:1"), "arithmetic", RunConfig())
    with pytest.raises(ReportShapeError, match="fields must be"):
        validate_report({"suite": good["suite"], "entry": good["entry"],
                         "status": good["status"], "witness": None,
                         "certificate": "", "theorem_tags": []})
    with pytest.raises(ReportShapeError, match="unknown status"):
        validate_report(dict(good, status="maybe"))
    with pytest.raises(ReportShapeError, match="float at"):
        validate_report(dict(good, witness={"ratio": 0.5}))
    with pytest.raises(ReportShapeError, match="non-string key"):
        validate_report(dict(good, witness={3: "x"}))
    with pytest.raises(ReportShapeError, match="unserializable"):
        validate_report(dict(good, witness={"v": object()}))
    with pytest.raises(ReportShapeError, match="list of strings"):
        validate_report(dict(good, theorem_tags=("Theorem 4.4",)))


def test_render_report_text_layout():
    report = run_one(find_entry("zmod:8"), "lemma-2-3", RunConfig(seed=42))
    text = render_report_text(report)
    lines = text.splitlines()
    assert lines[0] == "zmod:8 / lemma-2-3: holds"
    assert lines[1].startswith("  tags: ")
    assert "Lemma 2.3" in lines[1]
    assert any(line.startswith("  certificate: ") for line in lines)
    assert text.endswith("\n")


def test_validate_report_refuses_a_certificate_that_is_not_text():
    good = run_one(find_entry("gf:5:1"), "arithmetic", RunConfig())
    with pytest.raises(ReportShapeError, match="certificate must be a string"):
        validate_report(dict(good, certificate=None))


def test_render_report_text_renders_a_scalar_witness():
    good = run_one(find_entry("gf:5:1"), "arithmetic", RunConfig())
    text = render_report_text(dict(good, witness="2"))
    assert text.endswith('  witness:\n    "2"\n')


def test_render_list_outputs():
    doc = json.loads(render_list_json(ENTRIES))
    assert doc["schema"] == 1
    assert [e["id"] for e in doc["entries"]] == list(EXPECTED_ENTRY_IDS)
    assert doc["entries"][0]["provenance"] == \
        "calibration: reduced non-Archimedean"
    text = render_list_text(ENTRIES)
    assert len(text.splitlines()) == 11
    assert text.splitlines()[0].startswith("zmod:6")
    assert "Example 4.9" in text


# ---------------------------------------------------------------------------
# command line: subprocess behavior


def test_cli_list_json():
    proc = _run_cli("list")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert [e["id"] for e in doc["entries"]] == list(EXPECTED_ENTRY_IDS)


def test_cli_list_text():
    proc = _run_cli("list", "--format", "text")
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 11
    assert "calibration: field" in proc.stdout


def test_cli_run_is_deterministic_across_processes():
    args = ("run", "--entry", "zmod:8", "--suite", "remark-2-4",
            "--seed", "42")
    first = _run_cli(*args)
    second = _run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")
    doc = json.loads(first.stdout)
    assert doc["config"]["seed"] == 42
    assert doc["reports"][0]["status"] == "hypothesis-not-met"


def test_cli_jobs_merge_in_task_order():
    # one ring runs in process; a selection of several rings goes through
    # the pool, with fewer and with more workers than the two largest groups
    one_ring = [_run_cli("run", "--entry", "zmod:6", "--suite", "all",
                         "--seed", "5", "--jobs", jobs) for jobs in "12"]
    assert one_ring[0].returncode == one_ring[1].returncode == 0
    assert one_ring[0].stdout == one_ring[1].stdout
    doc = json.loads(one_ring[0].stdout)
    assert [r["suite"] for r in doc["reports"]] == list(SUITE_IDS)
    rings = [_run_cli("run", "--entry", "all", "--suite", "lemma-2-3",
                      "--seed", "5", "--jobs", jobs) for jobs in "123"]
    assert [proc.returncode for proc in rings] == [0, 0, 0]
    assert rings[0].stdout == rings[1].stdout == rings[2].stdout
    doc = json.loads(rings[0].stdout)
    assert [r["entry"] for r in doc["reports"]] == list(EXPECTED_ENTRY_IDS)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the rebound run_one reaches the workers only by fork")
def test_pool_runs_each_ring_in_one_process_and_merges_in_cell_order(monkeypatch):
    def where(entry, suite_id, config):
        time.sleep(0.005)   # long enough for both workers to take tasks
        return os.getpid(), entry.ring_spec, entry.id, suite_id

    monkeypatch.setattr(cli, "run_one", where)
    cells = [(e, s) for e in ENTRIES for s in ("arithmetic", "classify")]
    done = cli._collect_reports(cells, RunConfig(jobs=2))
    assert [d[2:] for d in done] == [(e.id, s) for e, s in cells]
    pids = {}
    for pid, ring_spec, _, _ in done:
        pids.setdefault(ring_spec, set()).add(pid)
    assert len(pids) == 8
    assert all(len(p) == 1 for p in pids.values()), pids
    assert os.getpid() not in set().union(*pids.values())


def test_one_ring_at_two_jobs_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for one ring")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    twins = [find_entry("gf:2:2"), find_entry("gf:2:2+endo:frob")]
    cells = [(e, "arithmetic") for e in twins]
    assert cli._collect_reports(cells, RunConfig(seed=5, jobs=2)) == \
        [run_one(e, s, RunConfig(seed=5)) for e, s in cells]


def test_ring_groups_put_the_largest_first_and_ties_in_first_appearance():
    cells = [(e, s) for e in ENTRIES for s in ("arithmetic", "classify")]
    groups = cli._ring_groups(cells)
    assert sorted(i for g in groups for i in g) == list(range(len(cells)))
    assert [cells[g[0]][0].id for g in groups] == [
        "gf:2:2", "prod(zmod:2,zmod:2)", "xyq:gf:2:1:N=8", "zmod:6",
        "zmod:8", "zmod:12", "gf:5:1", "prod(zmod:2,zmod:3)"]
    assert [len(g) for g in groups] == [4, 4, 4, 2, 2, 2, 2, 2]


def test_cli_expected_falsifier_chain_exits_zero():
    proc = _run_cli("run", "--entry", "zmod:6", "--suite", "falsify",
                    "--seed", "42")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["reports"][0]["status"] == "fails"


def test_cli_unknown_ids_exit_2():
    proc = _run_cli("run", "--entry", "nope", "--suite", "arithmetic")
    assert proc.returncode == 2
    assert "unknown entry id" in proc.stderr
    proc = _run_cli("run", "--entry", "zmod:6", "--suite", "nope")
    assert proc.returncode == 2
    assert "unknown suite id" in proc.stderr


def test_cli_bad_config_exits_2():
    proc = _run_cli("run", "--entry", "zmod:6", "--suite", "arithmetic",
                    "--precision", "1")
    assert proc.returncode == 2
    assert "precision must be >= 2" in proc.stderr
    proc = _run_cli("run", "--entry", "zmod:6", "--suite", "arithmetic",
                    env_extra={"SKEWARCH_SEED": "abc"})
    assert proc.returncode == 2
    assert "bad SKEWARCH_SEED value" in proc.stderr


def test_cli_env_mirrors_and_flag_precedence():
    args = ("run", "--entry", "zmod:6", "--suite", "arithmetic")
    from_env = _run_cli(*args, env_extra={"SKEWARCH_SEED": "7"})
    assert json.loads(from_env.stdout)["config"]["seed"] == 7
    flag_wins = _run_cli(*args, "--seed", "3",
                         env_extra={"SKEWARCH_SEED": "7"})
    assert json.loads(flag_wins.stdout)["config"]["seed"] == 3
    as_text = _run_cli(*args, env_extra={"SKEWARCH_FORMAT": "text"})
    assert as_text.returncode == 0
    assert as_text.stdout.startswith("zmod:6 / arithmetic: holds")


def test_resolve_without_flags_or_environment_gives_the_defaults(monkeypatch):
    for name in list(os.environ):
        if name.startswith(cli.ENV_PREFIX):
            monkeypatch.delenv(name)
    args = cli.build_parser().parse_args(["run"])
    assert cli._resolve(args) == ("all", "all", RunConfig(), None)


def test_cli_explain_renders_text():
    proc = _run_cli("explain", "--entry", "zmod:8", "--suite", "lemma-2-3",
                    "--seed", "42")
    assert proc.returncode == 0
    assert proc.stdout.startswith("zmod:8 / lemma-2-3: holds")
    assert "  tags: " in proc.stdout
    assert "  certificate: " in proc.stdout


# ---------------------------------------------------------------------------
# command line: in-process exit paths


def test_main_list_in_process(capsys):
    assert cli.main(["list"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["entries"]) == 11


def test_main_construction_failure_exits_3(monkeypatch, capsys):
    def broken():
        raise RingConstructionError("synthetic registry break")

    monkeypatch.setattr(cli, "startup_self_check", broken)
    assert cli.main(["run", "--entry", "zmod:6",
                     "--suite", "arithmetic"]) == 3
    assert "registry self-check failed" in capsys.readouterr().err


def test_main_contradiction_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "report_contradicts_predictions",
                        lambda entry, report: True)
    assert cli.main(["run", "--entry", "zmod:6",
                     "--suite", "arithmetic"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["status"] == HOLDS


@pytest.fixture
def clean_env(monkeypatch):
    """monkeypatch, with no SKEWARCH_ variable set."""
    for name in list(os.environ):
        if name.startswith(cli.ENV_PREFIX):
            monkeypatch.delenv(name)
    return monkeypatch


@pytest.mark.parametrize("argv, env, message", [
    (["run", "--entry", "zmod:6", "--suite", "arithmetic"],
     {"SKEWARCH_SEED": "abc"}, "bad SKEWARCH_SEED value"),
    (["run", "--entry", "zmod:6", "--suite", "arithmetic", "--precision", "1"],
     {}, "precision must be >= 2"),
    (["run", "--entry", "nope", "--suite", "arithmetic"], {}, "unknown entry id"),
    (["run", "--entry", "zmod:6", "--suite", "nope"], {}, "unknown suite id"),
])
def test_main_refusals_in_process_exit_2(clean_env, capsys, argv, env, message):
    for name, value in env.items():
        clean_env.setenv(name, value)
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


def test_main_list_text_explain_and_env_mirror_in_process(clean_env, capsys):
    assert cli.main(["list", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 11
    assert "calibration: field" in out
    assert cli.main(["explain", "--entry", "zmod:6", "--suite", "arithmetic"]) == 0
    assert capsys.readouterr().out.startswith("zmod:6 / arithmetic: holds")
    clean_env.setenv("SKEWARCH_SEED", "7")
    assert cli.main(["run", "--entry", "zmod:6", "--suite", "arithmetic"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 7
