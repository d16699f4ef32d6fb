#!/usr/bin/env bash
# CLI/daemon parity: `flowtrace select`/`localize` and the same request
# sent to `flowtrace serve` must give the same answers, and the same bad
# inputs must fail on both (exit 1 from the CLI, status "error" from the
# daemon). Usage: parity.sh FLOWTRACE SPEC (SPEC = specs/t2.flow).
set -eu

FT=$1
SPEC=$2
d=$(mktemp -d)
PID=
trap '[ -n "$PID" ] && kill -9 $PID 2>/dev/null; rm -rf "$d"' EXIT

fail() { echo "parity: $*"; exit 1; }

# the spec as a JSON string
spec_json=$(awk '{ gsub(/\\/, "\\\\"); gsub(/"/, "\\\""); gsub(/\t/, "\\t"); printf "%s\\n", $0 }' "$SPEC")

"$FT" serve --socket "$d/s" 2>/dev/null &
PID=$!
call() { "$FT" call --socket "$d/s" "$@" || true; }

# field NAME: the value of a scalar field of one response line
field() { sed -n "s/.*\"$1\":\\([^,}]*\\).*/\\1/p"; }
# the names of the daemon's "selected"/"selection" array, comma-separated
names() { sed -n "s/.*\"$1\":\\[\\([^]]*\\)\\].*/\\1/p" | tr -d '"' | sed 's/,/, /g'; }
# the CLI's selected and packed lines as one list, in the daemon's order
cli_names() {
  awk '/^selected: / { s = substr($0, 11) }
       /^packed: / { p = substr($0, 9) }
       END { if (p != "-") s = s ", " p; print s }'
}

# T2 usage scenarios 1-3 (Scenario.analysis_counts)
counts=(
  "PIOR=1 PIOW=1 Mon=2"
  "NCUU=2 NCUD=1 Mon=1"
  "PIOR=1 PIOW=2 NCUU=1 NCUD=1"
)
for sc in 1 2 3; do
  c=${counts[$((sc - 1))]}
  iflags=() json=
  for kv in $c; do
    iflags+=(-i "$kv")
    json="$json${json:+,}\"${kv%=*}\":${kv#*=}"
  done
  resp=$(call "{\"op\":\"open-session\",\"session\":\"sc$sc\",\"spec\":\"$spec_json\",\"instances\":{$json}}")
  case "$resp" in *'"status":"ok"'*) ;; *) fail "open scenario $sc: $resp";; esac
  for w in 16 32 48; do
    a=$("$FT" select "$SPEC" "${iflags[@]}" -w $w | cli_names)
    b=$(call "{\"op\":\"select\",\"session\":\"sc$sc\",\"width\":$w}" | names selected)
    [ -n "$a" ] && [ "$a" = "$b" ] || fail "scenario $sc width $w: CLI [$a] vs daemon [$b]"
  done
  # observe the first instance of the first flow with an observable
  # transition: its first two observable messages (a packed subgroup
  # makes its parent observable), in transition order
  sel=" $(call "{\"op\":\"select\",\"session\":\"sc$sc\"}" | names selected | tr -d , \
          | sed 's/\.[A-Za-z0-9_]*//g') "
  obs= tokens=
  while read -r owner m; do
    i=1
    for kv in $c; do
      [ "${kv%=*}" = "$owner" ] && break
      i=$((i + ${kv#*=}))
    done
    obs="$obs $i:$m"
    tokens="$tokens\"$i:$m\","
  done < <(awk -v sel="$sel" -v flows=" ${c//=[0-9]/} " '
    $1 == "flow" { f = $2 }
    $1 == "trans" && index(flows, " " f " ") && index(sel, " " $3 " ") {
      if (pick == "") pick = f
      if (f == pick && n++ < 2) print f, $3
    }' "$SPEC")
  [ -n "$obs" ] || fail "scenario $sc: no observation"
  for lossy in false true; do
    flag=()
    [ $lossy = true ] && flag=(--lossy)
    out=$("$FT" localize "$SPEC" "${iflags[@]}" -w 32 "${flag[@]}" "$obs")
    a=$(echo "$out" | sed -n 's/^consistent executions: \([0-9]*\) of \([0-9]*\) .*/\1 \2/p')
    resp=$(call "{\"op\":\"localize\",\"session\":\"sc$sc\",\"lossy\":$lossy,\"trace\":[${tokens%,}]}")
    b="$(echo "$resp" | field consistent) $(echo "$resp" | field total)"
    [ -n "$a" ] && [ "$a" = "$b" ] || fail "scenario $sc localize lossy=$lossy: CLI [$a] vs daemon [$b]"
  done
done

# bad inputs: exit 1 with one stderr line and no stdout from the CLI,
# status "error" from the daemon
cli_rejects() {
  local what=$1; shift
  set +e
  "$FT" "$@" > "$d/out" 2> "$d/err"
  local st=$?
  set -e
  [ $st -eq 1 ] || fail "$what: CLI exit $st, expected 1: $(cat "$d/out" "$d/err")"
  [ ! -s "$d/out" ] || fail "$what: CLI printed to stdout: $(cat "$d/out")"
  [ "$(wc -l < "$d/err")" -eq 1 ] || fail "$what: CLI stderr is not one line: $(cat "$d/err")"
}
daemon_rejects() {
  local what=$1 resp
  resp=$(call "$2")
  case "$resp" in *'"status":"error"'*) ;; *) fail "$what: daemon answered $resp";; esac
}

cli_rejects "unknown flow" select "$SPEC" -i PIOR=1 -i NoSuch=1
daemon_rejects "unknown flow" \
  "{\"op\":\"open-session\",\"session\":\"u\",\"spec\":\"$spec_json\",\"instances\":{\"PIOR\":1,\"NoSuch\":1}}"
cli_rejects "negative skip budget" localize "$SPEC" "1:piordreq" --lossy --skip-budget=-1
daemon_rejects "negative skip budget" \
  '{"op":"localize","session":"sc1","trace":["1:piordreq"],"lossy":true,"skip_budget":-1}'
cli_rejects "select width 0" select "$SPEC" -w 0
daemon_rejects "select width 0" '{"op":"select","session":"sc1","width":0}'
cli_rejects "localize width 0" localize "$SPEC" "1:piordreq" -w 0
daemon_rejects "localize width 0" '{"op":"localize","session":"sc1","trace":["1:piordreq"],"width":0}'
cli_rejects "negative instance index" localize "$SPEC" -- "-1:piordreq"
daemon_rejects "negative instance index" '{"op":"localize","session":"sc1","trace":["-1:piordreq"]}'

call '{"op":"shutdown"}' > /dev/null
wait $PID || fail "daemon did not exit cleanly"
PID=
echo "parity: CLI and daemon agree"
