#!/bin/sh
# Static analysis gate: gofmt, go vet and the project's own invariant checkers
# (cmd/dashdb-lint, all thirteen analyzers — AST matchers, the CFG
# dataflow checkers mustrelease/lockpair, and the whole-program hotpathcg
# call graph) in machine-readable form. Exits non-zero on any finding so
# CI can fail the build. Use `go run ./cmd/dashdb-lint -analyzer <name>`
# for fast single-analyzer iteration while fixing findings.
set -eu

cd "$(dirname "$0")/.."

test -z "$(gofmt -l $(git ls-files '*.go' | grep -v /testdata/))"
go vet ./...
go run ./cmd/dashdb-lint -json ./...
