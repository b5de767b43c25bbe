#!/usr/bin/env bash
# A complete `pathway serve` session: start a daemon, submit a study and a
# sweep, stream one job's telemetry, save and check the daemon's profile,
# fetch the final front, shut the daemon down.
#
#   ./examples/serve_demo.sh [data-dir]
#
# Builds the `pathway` binary if needed; everything lands under the data
# dir (default: a fresh examples/serve_demo.studies). Every step checks
# its result, so the script exits non-zero when the session goes wrong.
set -euo pipefail

cd "$(dirname "$0")/.."
DATA_DIR="${1:-examples/serve_demo.studies}"

cargo build --release -p pathway-cli
PATHWAY=target/release/pathway

rm -rf "$DATA_DIR"
mkdir -p "$DATA_DIR"

# 1. The daemon: one process, one shared 2-way evaluation pool, any number
#    of concurrent studies. Port 0 picks a free port; the bound address is
#    recorded in $DATA_DIR/endpoint for the client commands below.
"$PATHWAY" serve "$DATA_DIR" --listen 127.0.0.1:0 --threads 2 &
DAEMON_PID=$!
trap 'kill "$DAEMON_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do [ -s "$DATA_DIR/endpoint" ] && break; sleep 0.1; done
[ -s "$DATA_DIR/endpoint" ] || { echo "the daemon did not start" >&2; exit 1; }
echo "daemon up at $(cat "$DATA_DIR/endpoint")"

# 2. Submit a study and a sweep (one job per cell: six more). They
#    interleave one generation at a time on the shared pool, so none
#    starves another.
"$PATHWAY" submit examples/quickstart.spec --data-dir "$DATA_DIR"
"$PATHWAY" submit examples/leaf_redesign.sweep --data-dir "$DATA_DIR"

# 3. Live state: per-job generations plus the executor's queue/active
#    gauges, sampled while the jobs are actually running.
"$PATHWAY" status --data-dir "$DATA_DIR"

# 4. Stream job-0001's per-generation telemetry until it completes. (Safe
#    to interrupt: watchers are telemetry-only and never affect the run.)
"$PATHWAY" watch job-0001 --data-dir "$DATA_DIR" | tee "$DATA_DIR/watch.log"
grep -q '^job-0001: completed at generation' "$DATA_DIR/watch.log"
STATUS=$("$PATHWAY" status --data-dir "$DATA_DIR")
echo "$STATUS"
if echo "$STATUS" | grep -Eq 'failed|cancelled'; then exit 1; fi

# 5. The daemon's live telemetry: a `pathway-profile` document, the same
#    schema `pathway run --profile-out` writes.
"$PATHWAY" metrics --data-dir "$DATA_DIR" --out "$DATA_DIR/profile.json"
"$PATHWAY" profile-check "$DATA_DIR/profile.json"

# 6. Harvest the front — byte-identical to what `pathway run --front-out`
#    would have produced for the same spec.
"$PATHWAY" fetch-front job-0001 --data-dir "$DATA_DIR" --out "$DATA_DIR/job-0001.front"
head -n 3 "$DATA_DIR/job-0001.front"
head -n 1 "$DATA_DIR/job-0001.front" | grep -q '^pathway-front v1'

# 7. Clean shutdown: every still-running job writes a checkpoint first. A
#    later `pathway serve` over the same data dir resumes them
#    bit-identically — try `kill -9 $DAEMON_PID` instead and see.
"$PATHWAY" shutdown --data-dir "$DATA_DIR"
wait "$DAEMON_PID"
trap - EXIT
echo "done; artifacts in $DATA_DIR"
