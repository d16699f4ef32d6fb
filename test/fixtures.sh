#!/usr/bin/env bash
# Format stability: files written by an earlier build must still read
# the same. Runs from the test directory. Usage: fixtures.sh FLOWTRACE
#   corpus/state          two intact sessions from `serve --state-dir`
#   corpus/state-damaged  one file of each kind of damage, a stale temp
#                         file and an earlier quarantine
#   corpus/t2-w32*.ckpt   `select specs/t2.flow -w 32 --checkpoint`
#                         journals, complete and stopped at 300 candidates
# fsck (text and --json, scan and repair) must print the committed
# reports byte for byte, and both journals must resume to the
# uninterrupted answer.
set -eu

case $1 in /*) FT=$1 ;; *) FT=$PWD/$1 ;; esac
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

fail() { echo "fixtures: $*"; exit 1; }

# expect EXIT FILE CMD...: CMD exits EXIT and prints exactly FILE
expect() {
  local want=$1 file=$2 st
  shift 2
  set +e
  "$@" > "$d/out"
  st=$?
  set -e
  [ $st -eq "$want" ] || fail "$*: exit $st, expected $want"
  diff -u "$file" "$d/out" || fail "$*: output differs from $file"
}

for s in state:0 state-damaged:1; do
  dir=${s%:*} st=${s#*:}
  expect "$st" "corpus/$dir.fsck" "$FT" fsck --state-dir "corpus/$dir"
  expect "$st" "corpus/$dir.fsck.json" "$FT" fsck --state-dir "corpus/$dir" --json
done

# repair a copy: report, the clean rescan, what is left on disk and the
# compacted file
cp -r corpus/state-damaged "$d/"
(
  cd "$d"
  set +e
  "$FT" fsck --state-dir state-damaged --repair; echo "exit $?"
  "$FT" fsck --state-dir state-damaged; echo "exit $?"
  set -e
  ls state-damaged
  cat state-damaged/session-torn.ckpt
) > "$d/repair.out"
diff -u corpus/state-damaged.repair "$d/repair.out" || fail "fsck --repair output differs"

want=$("$FT" select ../specs/t2.flow -w 32 | grep '^selected:')
for j in t2-w32 t2-w32-partial; do
  cp "corpus/$j.ckpt" "$d/j.ckpt"
  got=$("$FT" select ../specs/t2.flow -w 32 --resume "$d/j.ckpt" | grep '^selected:')
  [ "$got" = "$want" ] || fail "$j resumed to [$got], uninterrupted [$want]"
done
echo "fixtures: earlier-build files read the same"
