#!/bin/sh
# Corpus check for aars-lint, run as a ctest and in CI:
#   1. the shipped architectures and scenarios must lint clean (zero
#      diagnostics, --strict),
#   2. every seeded defect in configs/defects/ must be caught,
#   3. the --json output and the text output must each be byte-identical
#      to a checked-in golden file, so neither format can drift silently.
#
# usage: check_corpus.sh <aars-lint> <configs-dir> <golden-json> <golden-text>
set -eu

LINT=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
CONFIGS=$2
GOLDEN=$(cd "$(dirname "$3")" && pwd)/$(basename "$3")
GOLDEN_TEXT=$(cd "$(dirname "$4")" && pwd)/$(basename "$4")

cd "$CONFIGS"
OUT="${TMPDIR:-/tmp}/aars_lint_corpus.$$"
OUT_TEXT="$OUT.txt"
trap 'rm -f "$OUT" "$OUT_TEXT"' EXIT

# Runs the whole corpus once, appending to $2; $1 is the output-format flag
# ("--json", or "" for the human-readable text form).
lint_corpus() {
  : > "$2"
  # 1. Clean corpus: exit 0 even under --strict, with configuration-space
  # exploration on — rule programs must have zero reachable violations.
  "$LINT" $1 --strict --explore \
    quickstart.adl load_balancing.adl telecom.adl three_tier.adl \
    adaptive.adl self_healing.adl scenarios/storm.fault >> "$2" 2>/dev/null || {
    echo "FAIL: clean corpus produced diagnostics" >&2
    exit 1
  }

  # 2. Seeded defects: every file must be caught under --strict.
  for f in defects/*.adl; do
    if "$LINT" $1 --strict --explore "$f" >> "$2" 2>/dev/null; then
      echo "FAIL: seeded defect not caught: $f" >&2
      exit 1
    fi
  done
  if "$LINT" $1 --strict --explore self_healing.adl defects/d10_bad_scenario.fault \
      >> "$2" 2>/dev/null; then
    echo "FAIL: seeded defect not caught: defects/d10_bad_scenario.fault" >&2
    exit 1
  fi
}

lint_corpus --json "$OUT"
lint_corpus "" "$OUT_TEXT"

# 3. Both output formats are stable.
if ! diff -u "$GOLDEN" "$OUT"; then
  echo "FAIL: --json output drifted from $GOLDEN" >&2
  echo "(regenerate by re-running this script and copying the diff)" >&2
  exit 1
fi
if ! diff -u "$GOLDEN_TEXT" "$OUT_TEXT"; then
  echo "FAIL: text output drifted from $GOLDEN_TEXT" >&2
  echo "(regenerate by re-running this script and copying the diff)" >&2
  exit 1
fi
echo "corpus clean, all seeded defects caught, json and text output stable"
