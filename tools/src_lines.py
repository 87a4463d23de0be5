#!/usr/bin/env python3
"""Counts the lines of the program's C++ sources, the way ROADMAP's
"Net state" reports them: `wc -l` over every src/**/*.cc and src/**/*.h,
once without the test-only oracles and once with them.

A source is test-only when an `add_library(qjo_*_reference ...)` block of
a src/*/CMakeLists.txt lists it; its header (same directory and stem)
counts with it. Only tests and benchmarks link those libraries.

Usage: tools/src_lines.py [repo_root]   (default: the parent of tools/)
"""

import pathlib
import re
import sys

REFERENCE_LIBRARY = re.compile(r"add_library\(\s*qjo_\w+_reference\b([^)]*)\)")


def count_lines(path):
    with open(path, "rb") as f:
        return f.read().count(b"\n")


def test_only_stems(src):
    """(directory, stem) of every source a reference library lists."""
    stems = set()
    for cmake in src.glob("*/CMakeLists.txt"):
        for block in REFERENCE_LIBRARY.findall(cmake.read_text()):
            for name in block.split():
                stems.add((cmake.parent, pathlib.Path(name).stem))
    return stems


def main():
    root = (pathlib.Path(sys.argv[1]) if len(sys.argv) > 1
            else pathlib.Path(__file__).resolve().parent.parent)
    src = root / "src"
    sources = [p for p in src.rglob("*")
               if p.is_file() and p.suffix in (".cc", ".h")]
    if not sources:
        sys.exit(f"no .cc/.h files under {src}")
    test_only = test_only_stems(src)
    production = 0
    reference = 0
    for path in sources:
        lines = count_lines(path)
        if (path.parent, path.stem) in test_only:
            reference += lines
        else:
            production += lines
    print(f"production (without test-only reference libraries): {production}")
    print(f"with reference oracles: {production + reference}")


if __name__ == "__main__":
    main()
