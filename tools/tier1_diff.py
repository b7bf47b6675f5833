"""Compare the Tier-1 test results of two checkouts.

Usage (from anywhere):

    python3 tools/tier1_diff.py --base ../parent --change .

``--base`` and ``--change`` are two checkouts of this repository, for
example the parent commit unpacked by ``git archive`` and the working tree.
Tier-1 runs in the base and then in the change, one subprocess at a time:
``python -m pytest -q --continue-on-collection-errors -p no:cacheprovider``
in the checkout, with that checkout's ``src`` first on ``PYTHONPATH``, one
BLAS thread, and a JUnit XML report written to a temporary file and read
back. Nothing is written into either checkout.

For each side it prints the tests collected, passed and failed (an error
counts as a failure), and the failing ids. For each test that fails on both
sides it says whether the failure messages are byte-identical, and it names
each test that passes or skips in the base and is missing from the change
(deleted, renamed or no longer collected). It exits 1 if the change fails a
test that the base does not fail (passes, skips or lacks), if a shared
failure's message differs, or if a test is missing, and 0 otherwise.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

PYTEST = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def run_tier1(checkout: Path) -> dict:
    """Run Tier-1 in ``checkout`` and return its :func:`outcomes`."""
    src = str(checkout / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **ONE_THREAD,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        argv = [sys.executable, *PYTEST, f"--junitxml={report}"]
        proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
        if not report.exists():
            sys.exit(f"tier1_diff: {checkout} wrote no report (exit {proc.returncode}):\n"
                     f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        return outcomes(ET.parse(report).getroot())


def outcomes(root: ET.Element) -> dict:
    """``{test id: (kind, message)}`` of a JUnit XML report, with kind
    ``"passed"``, ``"skipped"`` or ``"failed"`` (an error included) and the
    failure's message, or ``""``. A test id is the testcase's
    ``classname::name``, as the suite names it."""
    result = {}
    for case in root.iter("testcase"):
        test_id = f"{case.get('classname', '')}::{case.get('name', '')}"
        fault = case.find("failure")
        if fault is None:
            fault = case.find("error")
        if fault is not None:
            result[test_id] = "failed", fault.get("message") or fault.text or ""
        elif case.find("skipped") is not None:
            result[test_id] = "skipped", ""
        else:
            result[test_id] = "passed", ""
    return result


def failed(results: dict) -> list:
    return sorted(t for t, (kind, _) in results.items() if kind == "failed")


def report(name: str, results: dict):
    fails = failed(results)
    passed = sum(kind == "passed" for kind, _ in results.values())
    print(f"{name}: {len(results)} collected, {passed} passed, {len(fails)} failed")
    for test_id in fails:
        print(f"  FAILED {test_id}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, required=True, help="checkout under review")
    args = parser.parse_args(argv)
    sides = {}
    for name in ("base", "change"):
        sides[name] = run_tier1(getattr(args, name).resolve())
        report(name, sides[name])
    base, change = sides["base"], sides["change"]
    base_fails = set(failed(base))
    worse = [t for t in failed(change) if t not in base_fails]
    differ = []
    for test_id in sorted(base_fails & set(failed(change))):
        same = base[test_id][1].encode() == change[test_id][1].encode()
        print(f"shared failure {test_id}: message "
              f"{'byte-identical' if same else 'DIFFERS'}")
        if not same:
            differ.append(test_id)
    for test_id in worse:
        print(f"NEW FAILURE {test_id} (base: {base.get(test_id, ('not collected',))[0]})")
    missing = sorted(t for t, (kind, _) in base.items()
                     if kind != "failed" and t not in change)
    for test_id in missing:
        print(f"MISSING {test_id}")
    return 1 if worse or differ or missing else 0


if __name__ == "__main__":
    sys.exit(main())
