#!/usr/bin/env python3
"""Reachability census: which functions defined in src/ no shipped binary reaches.

Run from the repository root:

    python3 tools/census.py                  # configure, build, report
    python3 tools/census.py --no-build       # report on an existing census build

The census configures its own build directory, build-census/, at -O0 -g0 with -ffunction-sections -fdata-sections and links
with -Wl,--gc-sections, so the linker drops every function section that no
kept code or data refers to.  A function counts as *defined in src/* when
it is a global text symbol (nm type T) of one of the src/ static libraries,
and as *reached* by a binary when its symbol survives in that binary's
`nm --defined-only` output.  Constructor and destructor variants (C1/C2,
D0/D1/D2) are folded into one name.

Shipped binaries are examples/*, bench/* and tools/copsgen; every binary
under tests/ is a test.  The census prints the functions that no binary
reaches and those that only tests reach, then checks both lists against the
allowlist tools/census_allow.txt: one demangled name per
line, as printed here, then ` # ` and the reason it is kept.  It exits 1
when a listed function is missing from the allowlist, and names allowlist
lines that no longer match anything (stale lines do not fail the run).

A full build takes about 2.5 minutes on 4 cores.  The census is run by
hand; ctest does not run it.
"""
import argparse
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def configure_and_build(build_dir):
    subprocess.run(
        ["cmake", "-S", REPO, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g0",
         "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"],
        check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build_dir,
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=subprocess.DEVNULL)


def nm_symbols(path, types):
    """Mangled names of the defined symbols of `path` whose nm type is in `types`."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and (types is None or parts[1] in types):
            names.add(parts[2])
    return names


def demangle(names):
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return dict(zip(names, out.splitlines()))


def executables(directory):
    found = []
    for entry in sorted(os.listdir(directory)):
        path = os.path.join(directory, entry)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            found.append(path)
    return found


def read_allowlist(path):
    allowed = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, reason = line.partition(" # ")
            if not sep or not reason.strip():
                sys.exit(f"{path}:{lineno}: expected '<function> # <reason>'")
            allowed[name.strip()] = reason.strip()
    return allowed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--no-build", action="store_true",
                    help="report on the existing build-census/")
    args = ap.parse_args()

    build = os.path.join(REPO, "build-census")
    if not args.no_build:
        configure_and_build(build)

    defined = set()
    for root, _, files in os.walk(os.path.join(build, "src")):
        for name in files:
            if name.endswith(".a"):
                defined |= nm_symbols(os.path.join(root, name), {"T"})

    shipped = (executables(os.path.join(build, "examples")) +
               executables(os.path.join(build, "bench")) +
               [os.path.join(build, "tools", "copsgen")])
    tests = executables(os.path.join(build, "tests"))
    in_shipped, in_tests = set(), set()
    for path in shipped:
        in_shipped |= nm_symbols(path, None) & defined
    for path in tests:
        in_tests |= nm_symbols(path, None) & defined

    # Fold symbol variants (complete/base constructors and the like) into
    # their demangled name: a function is reached when any variant is.
    pretty = demangle(defined)
    functions = {}
    for mangled, name in pretty.items():
        functions.setdefault(name, set()).add(mangled)
    unreached, test_only = [], []
    for name, variants in sorted(functions.items()):
        if variants & in_shipped:
            continue
        (test_only if variants & in_tests else unreached).append(name)

    allowed = read_allowlist(os.path.join(REPO, "tools", "census_allow.txt"))
    missing = 0
    print(f"{len(functions)} functions defined in src/, "
          f"{len(shipped)} shipped and {len(tests)} test binaries")
    for title, names in (("unreached", unreached), ("test-only", test_only)):
        print(f"\n{title}: {len(names)}")
        for name in names:
            if name in allowed:
                print(f"  {name}  [allowed: {allowed[name]}]")
            else:
                print(f"  {name}  [NOT IN ALLOWLIST]")
                missing += 1
    stale = sorted(set(allowed) - set(unreached) - set(test_only))
    if stale:
        print(f"\nallowlist lines that match no unreached or test-only "
              f"function: {len(stale)}")
        for name in stale:
            print(f"  {name}")
    print(f"\n{missing} listed function(s) missing from the allowlist")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
