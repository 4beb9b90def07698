#!/usr/bin/env python3
"""Fail when a header in src/ is reached by no program the project ships.

A module that no example program and no experiment includes, directly or
through other headers, serves no answer; only its own tests and benches
keep it alive.  This walk finds such modules (stdlib only):

  * roots: every examples/*.cpp and bench/exp_case_study.cpp, plus the
    allowlisted headers below;
  * walk: follow each #include "..." that names a file under src/; a
    reached header also reaches the .cpp of the same name beside it;
  * failure: every src/**/*.hpp that is neither reached nor allowlisted,
    and every allowlist entry that no longer exists or that the roots now
    reach without the allowlist.

Usage:
  check_reach.py

Run from anywhere; paths are taken relative to the repository that holds
this script.  Exits 0 when every check passes, 1 with one line per failure
otherwise.
"""

import re
import sys
from pathlib import Path

# Headers kept although no shipped program includes them, each with the
# reason it stays.  Paths are relative to src/.
ALLOWLIST = {
    "netgen/generators.hpp": "the perfbench and bench workload generator",
    "transform/space_discovery.hpp": "the bench_pipeline discovery ablation",
    "depend/bdd_availability.hpp": "the bench_availability ablation",
    "bdd/bdd.hpp": "the BDD manager of the bench_availability ablation",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def resolve(name, including_file, src):
    """The file under src/ that `#include "name"` in `including_file`
    names, or None when it names none."""
    for candidate in (including_file.parent / name, src / name):
        candidate = candidate.resolve()
        if candidate.is_file() and src in candidate.parents:
            return candidate
    return None


def reach(roots, src):
    """Every file under src/ reached from `roots`; a reached header (a root
    included) also reaches the .cpp of the same name beside it."""
    seen = set()
    pending = list(roots)
    while pending:
        path = pending.pop()
        reached = [resolve(name, path, src) for name in
                   INCLUDE_RE.findall(path.read_text(errors="replace"))]
        if path.suffix == ".hpp" and path.with_suffix(".cpp").is_file():
            reached.append(path.with_suffix(".cpp"))
        for target in reached:
            if target is not None and target not in seen:
                seen.add(target)
                pending.append(target)
    return seen


def main():
    repo = Path(__file__).resolve().parent.parent
    src = repo / "src"
    programs = sorted((repo / "examples").glob("*.cpp"))
    programs.append(repo / "bench" / "exp_case_study.cpp")
    failures = []

    reached_by_programs = reach(programs, src)
    allowed = []
    for name in sorted(ALLOWLIST):
        header = (src / name).resolve()
        if not header.is_file():
            failures.append(f"allowlist entry src/{name} no longer exists")
        elif header in reached_by_programs:
            failures.append(f"allowlist entry src/{name} is now reached; "
                            "drop it from the allowlist")
        else:
            allowed.append(header)

    reached = reach(programs + allowed, src) | set(allowed)
    for header in sorted(src.rglob("*.hpp")):
        if header.resolve() not in reached:
            failures.append(f"{header.relative_to(repo)} is reached by no "
                            "example or experiment")

    for failure in failures:
        print(f"check_reach: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
