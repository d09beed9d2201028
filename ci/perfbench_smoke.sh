#!/usr/bin/env bash
# Benchmark smoke: runs every perfbench workload at seeds 1 and 7 for one
# second each, compares each printed fingerprint with its
# `perfbench.<workload>.seed<N>` line in pins.txt, and writes the run's
# fragment to target/pins/perfbench.txt for `cargo run -p pins` (bless).
# Build the benchmark first:
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
bin=$root/perfbench/target/release/perfbench
fragment=$root/target/pins/perfbench.txt
lines=()
moved=0
for seed in 1 7; do
  for workload in read_stream build_tree fleet endpoint; do
    limit=60
    if [ "$workload" = endpoint ]; then limit=120; fi
    out=$(timeout --kill-after=10 "$limit" \
      "$bin" --workload "$workload" --seed "$seed" --seconds 1 --trace 0)
    fp=$(printf '%s\n' "$out" | sed -n "s/^fingerprint $workload //p")
    if [ -z "$fp" ]; then
      echo "perfbench $workload seed $seed printed no fingerprint" >&2
      exit 1
    fi
    echo "fingerprint $workload $fp (seed $seed)"
    key=perfbench.$workload.seed$seed
    lines+=("$key = $fp")
    pinned=$(sed -n "s/^$key = //p" "$root/pins.txt")
    if [ "$fp" != "$pinned" ]; then
      echo "$key: ${pinned:-(none)} → $fp" >&2
      moved=1
    fi
  done
done
mkdir -p "$(dirname "$fragment")"
printf '%s\n' "${lines[@]}" | LC_ALL=C sort > "$fragment"
exit "$moved"
