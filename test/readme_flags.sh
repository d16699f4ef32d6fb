#!/usr/bin/env bash
# Keep the README CLI table honest: every `--flag` a row lists for a
# command must appear in that command's `--help=plain`.
# Usage: readme_flags.sh FLOWTRACE README
set -eu

FT=$1
README=$2
bad=0
rows=0
while IFS= read -r row; do
  cmd=$(echo "$row" | sed -n 's/^| `\([a-z]*\).*/\1/p')
  [ -n "$cmd" ] || continue
  rows=$((rows + 1))
  help=$("$FT" "$cmd" --help=plain)
  for flag in $(echo "$row" | grep -o -- '`--[a-z][a-z-]*' | tr -d '`' | sort -u); do
    echo "$help" | grep -qE -- "$flag([^a-z-]|\$)" || {
      echo "README lists $flag for '$cmd', but 'flowtrace $cmd --help' has no such option"
      bad=1
    }
  done
done < <(awk '/^\| Command \| Does \| Key options \|/ { on = 1; next } on && !/^\|/ { exit } on' "$README")
[ $rows -gt 0 ] || { echo "no CLI table found in $README"; exit 1; }
exit $bad
