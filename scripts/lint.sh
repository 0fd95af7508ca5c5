#!/bin/sh
# Static-analysis gate: every Go file must be gofmt-clean, and the
# armvet pass suite (determvet, lockvet, atomicvet, allocvet,
# metricvet, progvet) must run clean over the whole module.
# armvet typechecks the repo from source with the pure-Go toolchain
# (no cgo, no network), so the only requirement is a Go toolchain new
# enough for the go.mod language version. Degrade loudly, not
# silently: an old toolchain is an error, never a skipped gate.
# Extra arguments are passed straight through, e.g.
#
#   scripts/lint.sh -list
#   scripts/lint.sh ./internal/sim
set -eu

cd "$(dirname "$0")/.."

# go.mod says "go 1.22"; armvet's parser relies on 1.22 semantics
# (ast.Unparen, for-range scoping). Reject older toolchains with a
# clear message instead of a confusing compile error.
gover=$(go env GOVERSION 2>/dev/null || true)
case "$gover" in
"")
	echo "lint: cannot determine Go toolchain version ('go env GOVERSION' failed);" >&2
	echo "lint: armvet needs Go >= 1.22 — install or fix the toolchain, do not skip this gate" >&2
	exit 2
	;;
go1 | go1.[0-9] | go1.[0-9].* | go1.1[0-9] | go1.1[0-9].* | go1.2[01] | go1.2[01].*)
	echo "lint: Go toolchain $gover is too old for armvet (needs go1.22+)" >&2
	echo "lint: upgrade the toolchain; this gate must not be skipped" >&2
	exit 2
	;;
esac

# Formatting: gofmt -l names every file whose formatting differs.
unformatted=$(gofmt -l cmd examples internal perfbench ./*.go)
if [ -n "$unformatted" ]; then
	echo "lint: not gofmt-clean (fix with gofmt -w):" >&2
	printf '%s\n' "$unformatted" >&2
	exit 1
fi

if [ "$#" -eq 0 ]; then
	set -- ./...
fi
exec go run ./cmd/armvet "$@"
