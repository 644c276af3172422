#!/usr/bin/env bash
# Fails when libmram_core holds a function that no shipped program runs.
#
#   tools/unreached_check.sh [BUILD_DIR]
#
# The shipped programs are mram_scenarios, the examples and perfbench_runner.
# The script builds them and the library at Debug with -ffunction-sections
# -fdata-sections -fno-inline in BUILD_DIR (default: build-unreached/ at the
# repository root), then links each program's objects against every library
# object with --gc-sections --print-gc-sections. A function the linker drops
# from every program is unreached. The check fails when
#   - an unreached mram:: function (strong or file-local; inline and template
#     code is not counted) is not on the allowlist below, or
#   - an allowlist entry is reached by some program, or is not in the library
#     at all, so the list cannot go stale.
#
# -fno-inline matters: llg_batch.cpp, bitline.cpp and elliptic.cpp compile at
# -O3 in every build type, and without it GCC inlines a reached function into
# its caller and drops the out-of-line copy, which then reads as unreached.
# -fdata-sections matters too: without it switch jump tables share the one
# .rodata section every program keeps, and their relocations keep every
# function with a switch alive. Only
# functions declared in mram:: count (by their mangled names), so GCC's
# .isra/.constprop clones of std:: helpers are ignored; a function's own
# clones ([clone .avx2], .cold, .resolver, ...) count as the function.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build-unreached}
mkdir -p "$build/unreached"
build=$(cd "$build" && pwd)

# The perfbench project adds the repository as a subproject, so one
# configure builds the library, mram_scenarios and perfbench_runner.
log=$build/unreached/build.log
{
  cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections -fno-inline" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON &&
  cmake --build "$build" -j "$(nproc)" \
    --target mram_core mram_scenarios perfbench_runner
} > "$log" 2>&1 || { cat "$log"; exit 1; }

# The examples are set up exactly like mram_scenarios (one source file,
# mram_core linked PRIVATE), so they compile with its command line.
python3 - "$build" "$root" <<'EOF'
import json, os, shlex, subprocess, sys
build, root = sys.argv[1:]
cmds = json.load(open(os.path.join(build, "compile_commands.json")))
src = os.path.join(root, "tools", "mram_scenarios.cpp")
entry = next(c for c in cmds if os.path.realpath(c["file"]) == os.path.realpath(src))
args = shlex.split(entry["command"])
for name in sorted(os.listdir(os.path.join(root, "examples"))):
    if not name.endswith(".cpp"):
        continue
    out = os.path.join(build, "unreached", name[:-4] + ".o")
    cmd = [os.path.join(root, "examples", name) if a == entry["file"] else a
           for a in args]
    cmd[cmd.index("-o") + 1] = out
    subprocess.run(cmd, cwd=entry["directory"], check=True)
EOF

cxx=$(awk -F= '/^CMAKE_CXX_COMPILER:/ {print $2}' "$build/CMakeCache.txt")
mapfile -t lib_objs < <(find "$build/mram/CMakeFiles/mram_core.dir" -name '*.o' | sort)
link() {  # program name, its objects...
  local name=$1
  shift
  "$cxx" -o "$build/unreached/$name" "$@" "${lib_objs[@]}" -pthread \
    -Wl,--gc-sections -Wl,--print-gc-sections 2> "$build/unreached/$name.gc"
}
link mram_scenarios "$build/mram/CMakeFiles/mram_scenarios.dir/tools/mram_scenarios.cpp.o"
link perfbench_runner "$build"/CMakeFiles/perfbench_runner.dir/*.o
for obj in "$build"/unreached/*.o; do
  link "$(basename "$obj" .o)" "$obj"
done

for obj in "${lib_objs[@]}"; do
  objdump -t "$obj" | sed "s|^|$obj |"
done > "$build/unreached/symbols.txt"

python3 - "$build/unreached" <<'EOF'
import glob, os, re, subprocess, sys

# Library functions no shipped program runs, each with the reason it stays.
# An entry is a demangled signature (one line); each needs a comment above.
ALLOWLIST = """
# The explicit-level seams: each runs one internal SIMD clone by level, so
# the bitwise tests can check every level the host has, not only the one the
# load-time dispatch picks.
# Bitline.BandLimitedSolveMatchesDenseEliminationBitwise, per ladder level.
mram::rdo::BitlinePath::port(mram::rdo::BitlinePath::SolveLevel, unsigned long, double, std::vector<int, std::allocator<int> > const&) const
# Whether the host can run a ladder-solve level; gates the test above.
mram::rdo::BitlinePath::solve_level_supported(mram::rdo::BitlinePath::SolveLevel)
# The normal sampler's lane fill at one level (the RNG lane-fill tests).
mram::util::Rng::normal_fill_lanes(mram::util::Rng::LaneFill, mram::util::Rng*, unsigned long const*, unsigned long, unsigned long, double*, unsigned long)
# The level the lane fill dispatches to; a test checks the host has it.
mram::util::Rng::lane_fill_level()
# Elliptic.BatchedKEMatchesSeparateCallsBitwise, per K/E kernel level.
mram::num::ellint_ke_n(mram::num::KeLevel, unsigned long, double const*, double*, double*)
# Whether the host can run a K/E kernel level; gates the test above.
mram::num::ke_level_supported(mram::num::KeLevel)
# The three K/E kernel bodies the explicit-level ellint_ke_n calls (the
# dispatched path runs the same lane body through ke_batch's clones).
mram::num::(anonymous namespace)::ke_portable(unsigned long, double const*, double*, double*)
# The AVX2 body, as above.
mram::num::(anonymous namespace)::ke_avx2(unsigned long, double const*, double*, double*)
# The AVX-512F body, as above.
mram::num::(anonymous namespace)::ke_avx512(unsigned long, double const*, double*, double*)
# One aggressor's FL field, which the inter-cell solver oracle
# (InterCellSolver.MatchesScalarLoopOracleBitwise) compares bit for bit.
mram::arr::InterCellSolver::fl_unit_field(int) const
# The software perf group (task clock, page faults, context switches): the
# only test of the group read path on hosts without a PMU; it is to become
# the production fallback of --perf (ROADMAP, observability item (c)).
mram::obs::PerfGroup::open_software()
"""

out = sys.argv[1]
allow, comment = [], False
for line in ALLOWLIST.strip().splitlines():
    line = line.strip()
    if line.startswith("#"):
        comment = True
    elif line:
        if not comment:
            sys.exit(f"allowlist entry without a comment: {line}")
        allow.append(line)
        comment = False

# objdump -t: "<obj> <addr> <flags (7 chars)> <section>\t<size> <name>".
sym_re = re.compile(r"^(\S+) [0-9a-f]+ (.{7}) (\S+)\t([0-9a-f]+) (.+)$")
syms = []  # (object, section, binding, size, mangled name)
for line in open(os.path.join(out, "symbols.txt")):
    m = sym_re.match(line.rstrip("\n"))
    if not m or not m[3].startswith(".text") or m[2][6] != "F":
        continue
    obj, flags, sec, size, name = m.groups()
    # Weak (inline and template) code has a copy in every object that uses
    # it, so a dropped copy says nothing; it is not counted.
    if flags[0] in "lg" and re.match(r"_ZN[KVRO]*4mram", name):
        syms.append((obj, sec, flags[0] == "g", int(size, 16), name))

gc_re = re.compile(r"removing unused section '([^']+)' in file '([^']+)'")
links = sorted(glob.glob(os.path.join(out, "*.gc")))
removed = [set((m[2], m[1]) for m in map(gc_re.search, open(p)) if m)
           for p in links]

names = subprocess.run(["c++filt"], input="\n".join(s[4] for s in syms),
                       capture_output=True, text=True, check=True).stdout.split("\n")
funcs = {}  # demangled signature without clone suffixes -> [strong, size, reached]
for (obj, sec, strong, size, _), name in zip(syms, names):
    f = funcs.setdefault(re.sub(r" \[clone [^\]]*\]", "", name), [False, 0, False])
    f[0] |= strong
    f[1] += size
    f[2] |= any((obj, sec) not in r for r in removed)

unreached = sorted(n for n, f in funcs.items() if not f[2])
strong_bytes = sum(f[1] for f in funcs.values() if f[0])
bad = [n for n in unreached if n not in allow]
stale = [n for n in allow if n not in funcs or funcs[n][2]]
print(f"{len(links)} programs linked; {len(funcs)} mram:: functions in the "
      f"library ({strong_bytes} bytes of strong text), {len(unreached)} "
      f"unreached, {len(allow)} allowlisted")
for strong, kind in ((True, "strong"), (False, "local")):
    items = [n for n in bad if funcs[n][0] == strong]
    if items:
        size = sum(funcs[n][1] for n in items)
        print(f"\n{len(items)} {kind} functions ({size} bytes) that no program "
              f"reaches and that are not on the allowlist:")
        for n in items:
            print(f"  {n}  ({funcs[n][1]} bytes)")
if stale:
    print(f"\n{len(stale)} allowlist entries that a program reaches or that "
          f"the library does not define:")
    for n in stale:
        print(f"  {n}")
sys.exit(1 if bad or stale else 0)
EOF
