#!/usr/bin/env python3
"""Flag-syntax fuzzer: every binary rejects a malformed command line cleanly.

Covers every binary built from bench/*.cpp (bench/suite/ excluded) and
examples/*.cpp. Each binary's flags and their kinds are read from its
generated --help (`--name=N` count, `=INT` integer, `=NUM` number, `=PATH`
path, `=a|b|c` choice, `[=on|off]` switch, `=TEXT` free text). Each seed
then draws one malformed command line:

- a misspelt declared flag name;
- a positional token;
- `12abc` or an empty value for a count, integer, number or choice flag;
- a bare count, integer, number or path flag.

Rule: exit 2, the first stderr line starts with `error:`, stdout stays
empty (the line is rejected before anything runs), stderr never says
`terminate called`, and the run ends within 10 s. Value-range classes
(0, 1e-300, huge counts) are well-formed syntax that reaches the
simulator, so they are out of scope here.

A failure names its seed; rerun it alone with `--first-seed S --seeds 1`.

    python3 tools/check_flags.py [--build-dir build] [--seeds 40]
                                 [--first-seed 1]
"""
import argparse
import functools
import pathlib
import random
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HELP_LINE_RE = re.compile(r"^  --([a-z][a-z0-9-]*)(\[?=)?(\S*)", re.MULTILINE)
KINDS = {"N": "count", "INT": "integer", "NUM": "number", "PATH": "path",
         "TEXT": "text", "on|off]": "switch", "TEXT]": "text"}
TIMEOUT_S = 10


def binaries():
    return sorted(p.stem for top in ("bench", "examples")
                  for p in (ROOT / top).glob("*.cpp"))


def declared_flags(exe):
    """{name: kind} from the generated --help; --help itself is left out."""
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{exe} --help exited {proc.returncode}")
    flags = {}
    for name, eq, spelled in HELP_LINE_RE.findall(proc.stdout):
        if not eq:
            continue
        flags[name] = KINDS.get(spelled, "choice" if "|" in spelled else None)
        if flags[name] is None:
            raise SystemExit(f"{exe} --help: unknown kind {spelled!r} "
                             f"for --{name}")
    return flags


def misspell(rng, name, taken):
    while True:
        i = rng.randrange(len(name))
        edit = rng.choice(("drop", "double", "swap"))
        if edit == "drop" and len(name) > 1:
            typo = name[:i] + name[i + 1:]
        elif edit == "swap" and i + 1 < len(name):
            typo = name[:i] + name[i + 1] + name[i] + name[i + 2:]
        else:
            typo = name[:i] + name[i] + name[i:]
        if typo not in taken and typo != "help":
            return typo


def with_seed(check):
    """Runs `check` with a random.Random seeded by its first argument, so
    every draw is reproducible from the seed a failure reports."""
    @functools.wraps(check)
    def seeded(seed, *args):
        return check(random.Random(seed), seed, *args)
    return seeded


@with_seed
def fuzz_once(rng, seed, exe, flags):
    valued = [n for n, k in flags.items()
              if k in ("count", "integer", "number", "choice")]
    bare = [n for n, k in flags.items()
            if k in ("count", "integer", "number", "path")]
    classes = ["positional"] + (["misspelt"] if flags else []) \
        + (["malformed"] if valued else []) + (["bare"] if bare else [])
    drawn = rng.choice(classes)
    if drawn == "misspelt":
        name = rng.choice(sorted(flags))
        args = [f"--{misspell(rng, name, flags)}=1"]
    elif drawn == "positional":
        args = [rng.choice(("17", "extra", "gpt2-small", "-1", "="))]
    elif drawn == "malformed":
        args = [f"--{rng.choice(valued)}={rng.choice(('12abc', ''))}"]
    else:
        args = [f"--{rng.choice(bare)}"]
    try:
        proc = subprocess.run([exe] + args, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"seed {seed}: {exe.name} {' '.join(args)} ran past " \
               f"{TIMEOUT_S} s"
    first = (proc.stderr.splitlines() or [""])[0]
    if proc.returncode != 2 or not first.startswith("error:") \
            or proc.stdout or "terminate called" in proc.stderr:
        return f"seed {seed}: {exe.name} {' '.join(args)} -> exit " \
               f"{proc.returncode}, stderr {first!r}, " \
               f"{len(proc.stdout)} bytes on stdout"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="directory with the built binaries")
    parser.add_argument("--seeds", type=int, default=40,
                        help="seeds drawn per binary")
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()
    build = (ROOT / opts.build_dir).resolve()

    failures = []
    runs = 0
    for name in binaries():
        exe = build / name
        if not exe.is_file():
            failures.append(f"{exe} not built (build it first)")
            continue
        flags = declared_flags(exe)
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            runs += 1
            failure = fuzz_once(seed, exe, flags)
            if failure:
                failures.append(failure)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"{runs} malformed command lines over {len(binaries())} binaries "
          "each exited 2 with an error: line")


if __name__ == "__main__":
    main()
