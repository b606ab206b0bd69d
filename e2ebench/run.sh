#!/usr/bin/env bash
# Builds vmr2l-server, vmr2l-coord and the benchmark binary from the source
# tree in the current directory (the repository root), then runs the benchmark
# with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload large-ha --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/vmr2l-server" || ! -d "$root/cmd/vmr2l-coord" ]]; then
	echo "e2ebench: run from the repository root (no go.mod or cmd/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOTMPDIR" "$out/bin"

# Rebuild only when the sources changed.
stamp=$(find go.mod cmd internal e2ebench -type f \( -name '*.go' -o -name go.mod \) -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)
if [[ "$(cat "$out/bin/STAMP" 2>/dev/null || true)" != "$stamp" ]]; then
	rm -f "$out/bin/STAMP"
	go build -o "$out/bin/vmr2l-server" ./cmd/vmr2l-server
	go build -o "$out/bin/vmr2l-coord" ./cmd/vmr2l-coord
	(cd e2ebench && go build -o "$out/bin/e2ebench" .)
	echo "$stamp" >"$out/bin/STAMP"
fi
exec "$out/bin/e2ebench" -bin "$out/bin" -work "$out" -source "$stamp" "$@"
