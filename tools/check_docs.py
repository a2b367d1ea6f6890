#!/usr/bin/env python3
"""Docs gate: keep README/DESIGN/ROADMAP and the serving CLI in sync.

Three checks, run by CI's `docs` job (and runnable locally):

1. Link check — every relative markdown link in README.md / DESIGN.md /
   ROADMAP.md must point at a file that exists in the repo. External
   links (http/https/mailto), pure anchors, and paths that escape the
   repo root (the GitHub-web CI badge) are skipped.

2. Flag drift — every `--flag` printed by any binary's generated --help
   (HELP_BINARIES: every binary built from bench/*.cpp and
   examples/*.cpp) must appear in README.md, so the flag reference table
   cannot silently fall behind the real CLI.

3. Snippet smoke — every `./build/...` command quoted in README.md's
   fenced ```sh blocks is re-run and must exit 0, so quoted commands
   cannot drift from the current CLI. serve_load invocations get
   `--requests=16` appended (the Cli parser's last-one-wins rule) to keep
   the smoke fast without weakening the flag parsing under test. Output
   paths under `/tmp/` are rewritten into `<build-dir>/docs-snippets/`,
   so the smoke leaves nothing outside its build directory.

Usage: tools/check_docs.py [--build-dir build] [--skip-run]
"""

import argparse
import os
import re
import shlex
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ["README.md", "DESIGN.md", "ROADMAP.md"]
HELP_BINARIES = sorted(name[:-4] for top in ("bench", "examples")
                       for name in os.listdir(os.path.join(REPO, top))
                       if name.endswith(".cpp"))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")


def fail(errors):
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"{len(errors)} docs check(s) failed", file=sys.stderr)
    sys.exit(1)


def check_links():
    errors = []
    for doc in DOCS:
        text = open(os.path.join(REPO, doc), encoding="utf-8").read()
        for target in LINK_RE.findall(text):
            if re.match(r"[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page anchor
                continue
            resolved = os.path.normpath(os.path.join(REPO, path))
            if not resolved.startswith(REPO + os.sep):
                continue  # escapes the repo (GitHub-web paths like ../../actions)
            if not os.path.exists(resolved):
                errors.append(f"{doc}: broken relative link -> {target}")
    return errors


def check_flag_drift(build_dir):
    errors = []
    readme = open(os.path.join(REPO, "README.md"), encoding="utf-8").read()
    for binary in HELP_BINARIES:
        exe = os.path.join(build_dir, binary)
        if not os.path.exists(exe):
            errors.append(f"flag drift: {exe} not built (build it first)")
            continue
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            errors.append(f"flag drift: {binary} --help exited "
                          f"{proc.returncode}")
            continue
        flags = sorted(set(FLAG_RE.findall(proc.stdout)))
        if not flags:
            errors.append(f"flag drift: {binary} --help printed no flags")
        for flag in flags:
            if flag not in readme:
                errors.append(f"flag drift: {binary} --help lists {flag} "
                              "but README.md never mentions it")
    return errors


def quoted_commands():
    """`./build/...` lines from README's ```sh blocks, continuations joined."""
    commands = []
    in_sh = False
    pending = ""
    for line in open(os.path.join(REPO, "README.md"), encoding="utf-8"):
        stripped = line.strip()
        if stripped.startswith("```"):
            in_sh = stripped == "```sh"
            continue
        if not in_sh:
            continue
        pending += stripped.split("#", 1)[0].strip()
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        if pending.startswith("./build/"):
            commands.append(pending)
        pending = ""
    return commands


def check_snippets(build_dir):
    errors = []
    commands = quoted_commands()
    if not commands:
        return ["snippet smoke: README.md quotes no ./build/ commands "
                "(extraction broke?)"]
    scratch = os.path.join(build_dir, "docs-snippets")
    os.makedirs(scratch, exist_ok=True)
    for command in commands:
        args = [arg.replace("/tmp/", scratch + os.sep)
                for arg in shlex.split(command)]
        args[0] = os.path.join(build_dir, os.path.relpath(args[0], "./build"))
        if os.path.basename(args[0]) == "serve_load":
            args.append("--requests=16")
        print(f"run: {' '.join(args)}")
        try:
            proc = subprocess.run(args, cwd=REPO, capture_output=True,
                                  text=True, timeout=300)
        except (OSError, subprocess.TimeoutExpired) as e:
            errors.append(f"snippet smoke: `{command}` failed to run: {e}")
            continue
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            errors.append(f"snippet smoke: `{command}` exited "
                          f"{proc.returncode}: {' / '.join(tail)}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="directory with the built binaries")
    parser.add_argument("--skip-run", action="store_true",
                        help="only check links and flag drift, do not run "
                             "the quoted commands")
    opts = parser.parse_args()
    build_dir = os.path.abspath(os.path.join(REPO, opts.build_dir)) \
        if not os.path.isabs(opts.build_dir) else opts.build_dir

    errors = check_links()
    errors += check_flag_drift(build_dir)
    if not opts.skip_run:
        errors += check_snippets(build_dir)
    if errors:
        fail(errors)
    print("docs checks passed (links, flag drift"
          + (", snippets)" if not opts.skip_run else ")"))


if __name__ == "__main__":
    main()
