#!/usr/bin/env bash
# Kill-and-resume smoke for one journaled `pcap` command.
#
# Usage: journal-resume-smoke.sh PLAIN JOURNAL RESUMED PCAP_ARGS...
#
# Runs `pcap PCAP_ARGS --journal JOURNAL` in the background and polls
# the journal until it holds at least one whole record past its 20-byte
# header while the command still runs. It then sends SIGKILL, resumes
# the same command with stdout in RESUMED, and requires
#   * RESUMED to match PLAIN, the output of the command run without a
#     journal, byte for byte;
#   * the resume's stderr summary to read `resumed N, computed M` with
#     N >= 1 and M >= 1, so the kill landed in a partly done run.
# The binary is `./target/release/pcap` unless PCAP names another.
set -euo pipefail

if [ "$#" -lt 4 ]; then
  echo "usage: $0 PLAIN JOURNAL RESUMED PCAP_ARGS..." >&2
  exit 2
fi
plain=$1
journal=$2
resumed=$3
shift 3
pcap=${PCAP:-./target/release/pcap}
header_len=20

rm -rf "$journal" "$journal.claims"
"$pcap" "$@" --journal "$journal" > /dev/null &
pid=$!

# A record is a 4-byte little-endian length followed by that many bytes.
whole=0
deadline=$((SECONDS + 600))
while kill -0 "$pid" 2> /dev/null && [ "$SECONDS" -lt "$deadline" ]; do
  size=$(stat -c %s "$journal" 2> /dev/null || echo 0)
  if [ "$size" -ge $((header_len + 4)) ]; then
    read -r b0 b1 b2 b3 < <(od -An -tu1 -j "$header_len" -N 4 "$journal")
    len=$((b0 | b1 << 8 | b2 << 16 | b3 << 24))
    if [ "$size" -ge $((header_len + 4 + len)) ]; then
      whole=1
      break
    fi
  fi
  sleep 0.01
done
kill -9 "$pid" 2> /dev/null || true
wait "$pid" || true
if [ "$whole" -ne 1 ]; then
  echo "journal smoke: \`pcap $*\` ended before its journal held a whole record" >&2
  exit 1
fi

stderr=$(mktemp)
trap 'rm -f "$stderr"' EXIT
"$pcap" "$@" --journal "$journal" > "$resumed" 2> "$stderr"
cat "$stderr" >&2
cmp "$plain" "$resumed"
read -r n m < <(sed -n 's/.*resumed \([0-9]*\), computed \([0-9]*\).*/\1 \2/p' "$stderr")
if [ "${n:-0}" -lt 1 ] || [ "${m:-0}" -lt 1 ]; then
  echo "journal smoke: expected a partly done journal, got resumed ${n:-?}, computed ${m:-?}" >&2
  exit 1
fi
echo "journal smoke: \`pcap $*\` killed after $n of $((n + m)) cells, resumed byte-identical" >&2
