#!/usr/bin/env python3
"""Fail when a header under src/ is reached by no binary: such a module is
dead code, whatever tests still exercise it.

The walk starts from every .cpp/.hpp under bench/ (bench/suite/ included)
and examples/, follows #include "..." transitively, and pulls in the .cpp
next to each reached header, since linking the header's declarations
needs it. Files under tests/ start no walk, so a module only tests include
counts as unreached. An include resolves against the including file's
directory, then src/ (the build's include root), then the repository root.

    python3 tools/check_reach.py
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def resolve(name, includer):
    for base in (includer.parent, SRC, ROOT):
        path = base / name
        if path.is_file():
            return path.resolve()
    return None


def sources(top):
    return [p.resolve() for p in sorted((ROOT / top).rglob("*"))
            if p.suffix in (".hpp", ".cpp") and p.is_file()]


reached = set()
pending = sources("bench") + sources("examples")
while pending:
    path = pending.pop()
    if path in reached:
        continue
    reached.add(path)
    if path.suffix == ".hpp" and path.with_suffix(".cpp").is_file():
        pending.append(path.with_suffix(".cpp"))
    for name in INCLUDE_RE.findall(path.read_text()):
        target = resolve(name, path)
        if target is not None:
            pending.append(target)

unreached = [h.relative_to(SRC).as_posix() for h in sorted(SRC.rglob("*.hpp"))
             if h.resolve() not in reached]
for rel in unreached:
    print(f"unreached header: src/{rel}")
if unreached:
    sys.exit(1)
print("every header under src/ is reached from bench/ or examples/")
