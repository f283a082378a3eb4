#!/usr/bin/env python3
"""Dead-code sweep: the codes:: functions that no shipped binary contains.

Run from the repository root:

    python3 tools/dead_code_sweep.py

Builds every non-test executable of the repo (tools/, bench/, examples/)
and perfbench's codes_perfbench, a separate CMake project, into
build-deadcode/ at -O0 with -ffunction-sections -fdata-sections, linked with
-Wl,--gc-sections. -O0 inlines nothing, so a function that a binary uses is
in it as a symbol, and the linker drops every section that nothing reaches.
A function symbol (nm types T, t, W) of a src/ static library that none of
those binaries contains is reachable only from tests, or from nothing.

The dead names are demangled and kept when they are codes:: functions;
destructors and instantiations of library templates (std::, Result<T>,
std::get) are dropped as noise. The rest is diffed against
tools/dead_code_allowlist.txt, keyed by the full demangled signature so
that overloads stay distinct. Each allowlist line is

    <signature>  # <reason>

and the reason must be one of REASONS. Exits 1 when a dead name is not on
the allowlist (delete it, give it a caller, or allowlist it with a reason),
when an allowlisted name is no longer dead (a stale entry), or when an
entry has no valid reason.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-deadcode")
ALLOWLIST = os.path.join(ROOT, "tools", "dead_code_allowlist.txt")

# Why a function may stay in src/ without a non-test caller.
REASONS = re.compile(r"^(durability backend|test hook or accessor|"
                     r"corpus format or replay|reference implementation|"
                     r"resolved by ROADMAP item \d+)(: .*)?$")

FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]

# Demangled names that are instantiation noise rather than code written
# in src/: destructors and library templates instantiated for codes types
# (a std:: function returning a codes type demangles with the return type
# first, "codes::X& std::forward<...>(...)").
NOISE = re.compile(r"::~|^codes::Result<|std::get<|^[^(<]* std::")

# Spellings shortened in the report and the allowlist.
SHORTHAND = [
    (re.compile(r"std::__cxx11::basic_string<char, std::char_traits<char>, "
                r"std::allocator<char> >"), "std::string"),
    (re.compile(r"std::basic_string_view<char, std::char_traits<char> >"),
     "std::string_view"),
    (re.compile(r", std::allocator<[^<>]*(?:<[^<>]*>[^<>]*)*> >"), ">"),
    (re.compile(r"\[abi:cxx11\]"), ""),
]


def step(cmd):
    # Build output goes to stderr: stdout carries only the sweep's report.
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                      stderr=sys.stderr).returncode != 0:
        sys.exit("dead_code_sweep: failed: " + " ".join(cmd))


def configure(source, binary):
    """Configures `binary` from `source`; returns its CMake code model."""
    query = os.path.join(binary, ".cmake", "api", "v1", "query")
    os.makedirs(query, exist_ok=True)
    open(os.path.join(query, "codemodel-v2"), "w").close()
    step(["cmake", "-S", source, "-B", binary] + FLAGS)
    reply = os.path.join(binary, ".cmake", "api", "v1", "reply")
    index = max(f for f in os.listdir(reply) if f.startswith("index-"))
    with open(os.path.join(reply, index), encoding="utf-8") as f:
        model = json.load(f)["reply"]["codemodel-v2"]["jsonFile"]
    with open(os.path.join(reply, model), encoding="utf-8") as f:
        config = json.load(f)["configurations"][0]
    targets = []
    for t in config["targets"]:
        with open(os.path.join(reply, t["jsonFile"]), encoding="utf-8") as f:
            targets.append(json.load(f))
    return targets


def artifact(binary, target):
    return os.path.join(binary, target["artifacts"][0]["path"])


def functions(paths):
    """Mangled names of the functions defined in the given files."""
    out = subprocess.run(["nm", "--defined-only"] + paths, check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in ("T", "t", "W"):
            names.add(parts[2])
    return names


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    lines = out.splitlines()
    for pattern, short in SHORTHAND:
        lines = [pattern.sub(short, line) for line in lines]
    return lines


def sweep():
    """Builds the binaries and returns the sorted dead codes:: signatures."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    targets = configure(ROOT, BUILD)
    top = lambda t: t["paths"]["source"].split("/")[0]
    exes = [t for t in targets
            if t["type"] == "EXECUTABLE" and top(t) != "tests"]
    libs = [t for t in targets
            if t["type"] == "STATIC_LIBRARY" and top(t) == "src"]
    step(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
         [t["name"] for t in exes + libs])

    perf_build = os.path.join(BUILD, "perfbench")
    perf = [t for t in configure(os.path.join(ROOT, "perfbench"), perf_build)
            if t["name"] == "codes_perfbench"]
    step(["cmake", "--build", perf_build, "-j", jobs, "--target",
          "codes_perfbench"])

    binaries = [artifact(BUILD, t) for t in exes]
    binaries += [artifact(perf_build, t) for t in perf]
    print(f"dead_code_sweep: {len(binaries)} binaries, {len(libs)} src/ "
          "libraries", file=sys.stderr)
    dead = functions([artifact(BUILD, t) for t in libs]) - functions(binaries)
    return sorted({n for n in demangle(sorted(dead))
                   if n.startswith("codes::") and not NOISE.search(n)})


def read_allowlist():
    """The allowlisted signatures; exits on a line without a valid reason."""
    entries, bad = set(), []
    with open(ALLOWLIST, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            name, _, reason = line.partition("  # ")
            if not REASONS.match(reason.strip()):
                bad.append(f"{ALLOWLIST}:{number}: no valid reason: {line}")
            entries.add(name.strip())
    if bad:
        sys.exit("\n".join(bad))
    return entries


def main():
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    allowed = read_allowlist()
    dead = sweep()
    new = [n for n in dead if n not in allowed]
    stale = sorted(allowed - set(dead))
    for n in new:
        print(f"dead (no non-test caller, not allowlisted): {n}")
    for n in stale:
        print(f"stale allowlist entry (now has a caller, or is gone): {n}")
    print(f"dead_code_sweep: {len(dead)} dead, {len(allowed)} allowlisted, "
          f"{len(new)} new, {len(stale)} stale")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
