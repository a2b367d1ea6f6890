#!/usr/bin/env python3
"""Fail when a header under src/ is #included by no file except its own
.cpp: such a module is reached by no binary, test or benchmark, so it is
dead code. Scans src/, tests/, bench/ and examples/; include paths are
relative to src/, as the build's include root spells them.

    python3 tools/check_reach.py
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

includers = {}  # header path relative to src/ -> files that include it
for top in ("src", "tests", "bench", "examples"):
    for path in sorted((ROOT / top).rglob("*")):
        if path.suffix not in (".hpp", ".cpp") or not path.is_file():
            continue
        for name in INCLUDE_RE.findall(path.read_text()):
            includers.setdefault(name, set()).add(path)

unreached = []
for header in sorted(SRC.rglob("*.hpp")):
    rel = header.relative_to(SRC).as_posix()
    if not includers.get(rel, set()) - {header.with_suffix(".cpp")}:
        unreached.append(rel)

for rel in unreached:
    print(f"unreached header: src/{rel}")
if unreached:
    sys.exit(1)
print("every header under src/ is included outside its own .cpp")
