#!/usr/bin/env bash
# Line coverage of src/ under the tier-1 suite.
#
#   scripts/coverage.sh            # tree in build-coverage/
#   COVERAGE_DIR=/tmp/cov scripts/coverage.sh
#
# Builds a Debug -O0 --coverage tree with benches and examples off, runs
# the whole tier-1 ctest (falling back to `-LE net` where loopback sockets
# are unavailable), then reads every object compiled from src/ with gcov
# and prints line coverage per src/ file, per module, and in total. A
# header included by several translation units is counted once: a line
# is executable if any unit compiled it and covered if any unit ran it.
set -uo pipefail

cd "$(dirname "$0")/.."
DIR=${COVERAGE_DIR:-build-coverage}
JOBS=${JOBS:-$(nproc)}

cmake -B "$DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-O0 --coverage" \
  -DCMAKE_EXE_LINK_FLAGS="--coverage" \
  -DTEMPUS_BUILD_BENCHMARKS=OFF -DTEMPUS_BUILD_EXAMPLES=OFF || exit 1
cmake --build "$DIR" -j "$JOBS" || exit 1

# Counters accumulate across runs; start from zero.
find "$DIR" -name '*.gcda' -delete
if ! (cd "$DIR" && ctest -j "$JOBS" --output-on-failure); then
  echo "== ctest failed; retrying without net-labeled suites ==" >&2
  find "$DIR" -name '*.gcda' -delete
  (cd "$DIR" && ctest -j "$JOBS" --output-on-failure -LE net) || exit 1
fi

python3 - "$DIR" "$PWD/src/" <<'EOF'
import collections, glob, gzip, json, os, subprocess, sys, tempfile

build, src = sys.argv[1], sys.argv[2]
lines = collections.defaultdict(dict)  # file -> {line: max count}
for gcda in sorted(glob.glob(os.path.join(build, "src", "**", "*.gcda"),
                             recursive=True)):
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["gcov", "-j", "-o", os.path.dirname(gcda),
                        os.path.abspath(gcda)], cwd=tmp, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for out in glob.glob(os.path.join(tmp, "*.gcov.json.gz")):
            with gzip.open(out) as f:
                doc = json.load(f)
            for entry in doc["files"]:
                path = os.path.normpath(
                    os.path.join(doc.get("current_working_directory", ""),
                                 entry["file"]))
                if not path.startswith(src):
                    continue
                seen = lines[path[len(src):]]
                for line in entry["lines"]:
                    n = line["line_number"]
                    seen[n] = max(seen.get(n, 0), line["count"])

modules = collections.defaultdict(lambda: [0, 0])
total = [0, 0]
for path in sorted(lines):
    exe = len(lines[path])
    if exe == 0:
        continue
    hit = sum(1 for c in lines[path].values() if c > 0)
    print(f"{100.0 * hit / exe:6.1f}%  {hit:5d}/{exe:<5d}  src/{path}")
    for acc in (modules[path.split("/")[0]], total):
        acc[0] += hit
        acc[1] += exe
print()
for name, (hit, exe) in sorted(modules.items()):
    print(f"{100.0 * hit / exe:6.1f}%  {hit:5d}/{exe:<5d}  src/{name}/")
print(f"{100.0 * total[0] / total[1]:6.1f}%  {total[0]:5d}/{total[1]:<5d}  "
      "src/ total")
EOF
