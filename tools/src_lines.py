#!/usr/bin/env python3
"""Counts the lines of the program's C++ sources, the way ROADMAP's
"Net state" reports them: `wc -l` over every src/**/*.cc and src/**/*.h,
once without the test-only oracles (`*_reference.*`) and once with them.

Usage: tools/src_lines.py [repo_root]   (default: the parent of tools/)
"""

import pathlib
import sys


def count_lines(path):
    with open(path, "rb") as f:
        return f.read().count(b"\n")


def main():
    root = (pathlib.Path(sys.argv[1]) if len(sys.argv) > 1
            else pathlib.Path(__file__).resolve().parent.parent)
    sources = [p for p in (root / "src").rglob("*")
               if p.is_file() and p.suffix in (".cc", ".h")]
    if not sources:
        sys.exit(f"no .cc/.h files under {root / 'src'}")
    production = 0
    reference = 0
    for path in sources:
        lines = count_lines(path)
        if "_reference." in path.name:
            reference += lines
        else:
            production += lines
    print(f"production (without *_reference.*): {production}")
    print(f"with reference oracles: {production + reference}")


if __name__ == "__main__":
    main()
