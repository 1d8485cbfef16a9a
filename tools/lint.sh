#!/usr/bin/env bash
# segdb lint driver: the architecture linter (tools/segdb_lint.py, pure
# Python, always runs), the semantic checker suite (tools/segdb_sema,
# pure Python with an optional clang.cindex frontend, always runs), then
# clang-tidy over every translation unit using the checked-in .clang-tidy.
#
# Usage: tools/lint.sh [build-dir]     (default: build)
#
# All three consumers share one compilation database: the given build
# dir's compile_commands.json when present, else the newest one found
# under build*/ (CMAKE_EXPORT_COMPILE_COMMANDS is ON by default, so any
# configured build tree has one).
#
# clang-tidy is skipped with a notice when not installed, so the CMake
# `lint` target stays runnable on minimal toolchains; CI installs
# clang-tidy and gets the real pass. segdb_lint.py and segdb_sema have no
# toolchain dependency and their failures always fail this script.
#
# Exit-code discipline: each stage runs even if an earlier one failed
# (`|| status=1` keeps `set -e` from aborting between stages), and the
# combined status is propagated at the end — previously a clang-tidy
# warnings-as-errors failure under `set -euo pipefail` aborted the script
# mid-stream, which the CMake `lint` target reported without ever running
# the remaining stages.
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
status=0

# Locate the shared compilation database: prefer the requested build dir,
# fall back to the newest compile_commands.json under build*/.
compile_db=""
if [ -f "${build_dir}/compile_commands.json" ]; then
  compile_db="${build_dir}/compile_commands.json"
else
  compile_db="$(ls -t build*/compile_commands.json 2>/dev/null | head -n1 || true)"
  if [ -n "${compile_db}" ]; then
    build_dir="$(dirname "${compile_db}")"
    echo "lint.sh: using compilation database ${compile_db}"
  fi
fi

echo "lint.sh: segdb_lint.py (architecture rules)"
python3 tools/segdb_lint.py || status=1

echo "lint.sh: segdb_sema (pin / status / atomicity / blocking / deadline / io-cost rules)"
if [ -n "${compile_db}" ]; then
  python3 tools/segdb_sema --compile-db "${compile_db}" || status=1
else
  python3 tools/segdb_sema || status=1
fi

echo "lint.sh: check_bench_json.py (tracked BENCH_*.json schemas)"
for bench in BENCH_micro.json BENCH_e3.json BENCH_e4.json; do
  python3 tools/check_bench_json.py "${bench}" || status=1
done

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "lint.sh: clang-tidy not found on PATH; skipping clang-tidy." >&2
  echo "lint.sh: install clang-tidy (e.g. apt-get install clang-tidy) to run it." >&2
  exit "${status}"
fi

if [ -z "${compile_db}" ]; then
  echo "lint.sh: no compile_commands.json under ${build_dir} or build*/." >&2
  echo "lint.sh: configure first: cmake -B ${build_dir} -S ." >&2
  exit 1
fi

files=()
while IFS= read -r f; do
  files+=("$f")
done < <(git ls-files 'src/*.cc' 'src/**/*.cc' 'tests/*.cc' 'bench/*.cc' 'examples/*.cpp')

if [ "${#files[@]}" -eq 0 ]; then
  echo "lint.sh: no source files found." >&2
  exit 1
fi

echo "lint.sh: clang-tidy over ${#files[@]} files (database: ${build_dir})"
clang-tidy -p "${build_dir}" --quiet "${files[@]}" || status=1

if [ "${status}" -eq 0 ]; then
  echo "lint.sh: OK"
else
  echo "lint.sh: FAILED (see diagnostics above)" >&2
fi
exit "${status}"
