#!/usr/bin/env python3
"""Lists the src/ headers that only tests reach.

A header under src/ is in use when some file outside tests/ includes it:
another src/ file (other than the header's own .cc), an example, a bench, a
tool or perfbench. Every src/ header that no such file includes is printed,
with the tests that do include it, and the exit status is 1 when there is
any. A module like that runs nothing the shipped program runs: give it a
consumer or delete it, and move a test fixture under tests/support/.

    tools/check_src_consumers.py
"""
import pathlib
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}


def source_files(root):
    """Every C++ source under `root`, skipping hidden and build trees."""
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        if any(part.startswith(".") or part.startswith("build") for part in rel.parts[:-1]):
            continue
        yield rel


def main():
    root = pathlib.Path(__file__).resolve().parent.parent

    headers = set()
    includers = {}  # header path -> files that include it
    for rel in source_files(root):
        if rel.parts[0] == "src" and rel.suffix == ".h":
            headers.add(rel.as_posix())
        text = (root / rel).read_text(encoding="utf-8", errors="replace")
        for included in INCLUDE.findall(text):
            includers.setdefault(included, []).append(rel)

    test_only = []
    for header in sorted(headers):
        own_cc = header[: -len(".h")] + ".cc"
        users = [f for f in includers.get(header, []) if f.as_posix() != own_cc]
        if not any(f.parts[0] != "tests" for f in users):
            test_only.append((header, sorted(f.as_posix() for f in users)))

    for header, users in test_only:
        print(f"{header}: included only by {', '.join(users) if users else 'nothing'}")
    if test_only:
        print(f"{len(test_only)} src/ header(s) reached only from tests/", file=sys.stderr)
        return 1
    print(f"all {len(headers)} src/ headers have a consumer outside tests/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
