#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): picks the binary by `--trace`
# and hands every argument on. `--trace 0` builds and runs `ncx-e2e` alone,
# so the gated run never compiles a probe.
set -eu
bin=ncx-e2e
previous=
for arg in "$@"; do
    if [ "$previous" = --trace ] && [ "$arg" = 1 ]; then
        bin=ncx-e2e-trace
    fi
    previous=$arg
done
exec cargo run --release --quiet --offline \
    --manifest-path "$(dirname "$0")/Cargo.toml" --bin "$bin" -- "$@"
