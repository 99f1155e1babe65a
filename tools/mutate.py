"""Run the checked-in mutants of the fast paths and report which the tests kill.

Standard library only; not part of tier-1.  Run it from anywhere:

    python tools/mutate.py                     # every mutant in tools/mutants.json
    python tools/mutate.py NAME [NAME ...]     # the named mutants only

Each mutant in tools/mutants.json names a file under the repository, a
source fragment that occurs in it exactly once, the fragment's
replacement, and the test files that should kill it.  For each mutant
the repository (without .git and caches) is copied to a temporary
directory, the fragment is replaced there, and pytest runs the named
test files in the copy, stopping at the first failure.  A failing run
kills the mutant; a passing one lets it survive.  A mutant listed with
an `equivalent` reason cannot change any result, and its survival is
expected.  One pytest process runs at a time.

The exit status is 0 when every mutant is killed or survives as an
expected equivalent, 1 otherwise.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants.json"
FIELDS = {"name", "file", "fragment", "replacement", "tests"}
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".bench_build", "*.pyc")


def load_mutants(path=MUTANTS):
    """The mutant list, each entry checked against the tree: its fields,
    a unique name, one occurrence of its fragment, a replacement that
    differs, and test files that exist.  Raises ValueError otherwise."""
    mutants = json.loads(Path(path).read_text(encoding="utf-8"))
    names = set()
    for m in mutants:
        missing = FIELDS - m.keys()
        if missing:
            raise ValueError("mutant %r lacks %s" % (m.get("name"), sorted(missing)))
        if m["name"] in names:
            raise ValueError("mutant name %r repeats" % m["name"])
        names.add(m["name"])
        count = (ROOT / m["file"]).read_text(encoding="utf-8").count(m["fragment"])
        if count != 1:
            raise ValueError("mutant %r: its fragment occurs %d times in %s"
                             % (m["name"], count, m["file"]))
        if m["replacement"] == m["fragment"]:
            raise ValueError("mutant %r changes nothing" % m["name"])
        for test in m["tests"]:
            if not (ROOT / test.split("::")[0]).is_file():
                raise ValueError("mutant %r: no test file %s" % (m["name"], test))
    return mutants


def run_mutant(mutant):
    """(killed, first failing test or None) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / mutant["file"]
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutant["fragment"], mutant["replacement"]),
                          encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
               *mutant["tests"]]
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return False, None
    failed = re.search(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
    # no FAILED line: an error in collection, or pytest could not run
    return True, failed.group(1) if failed else proc.stdout.strip()[-200:]


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    mutants = load_mutants()
    unknown = set(args) - {m["name"] for m in mutants}
    if unknown:
        print("unknown mutants: %s" % ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    chosen = [m for m in mutants if not args or m["name"] in args]
    unexpected = 0
    for m in chosen:
        killed, first = run_mutant(m)
        equivalent = m.get("equivalent")
        if killed:
            verdict = "killed by %s" % first
            unexpected += bool(equivalent)
        else:
            verdict = "survived" + (" (equivalent)" if equivalent else "")
            unexpected += not equivalent
        print("%-32s %s" % (m["name"], verdict), flush=True)
    print("%d mutants, %d unexpected" % (len(chosen), unexpected))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
