#!/bin/sh
# Tier-1 verification: build, gofmt, vet, the project's own invariant analyzers
# (dashdb-lint), the full test suite, and a race-detector pass over every
# package. Set DASHDB_FUZZ=1 to add a 10-second smoke run of each fuzz
# target (SQL front end totality, encoder round-trip identity, every
# encoder's typed stride decode vs the boxed per-cell oracle, bulk-append
# atomicity under racing truncates, one table image whether rows arrive as
# rows, typed lanes or wire blocks and into tables at dop 1, 2 or 8, the
# shard wire's frame, batch block and control message decoding and the
# persisted blobs' readers, the statement AST codec's round trip and
# hostile bytes, every
# expression node's EvalVec vs the row-at-a-time oracle in
# internal/exec/oracle_test.go on generated trees and batches, the sort's
# normalized-key order vs a stable types.Compare oracle, one answer and one
# plan for a drawn inner join however its conditions are spelled, the
# packed-code range kernel vs the value-at-a-time oracle).
set -eux

cd "$(dirname "$0")/.."

go build ./...
# Formatting gate: every tracked Go file outside testdata is gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go' | grep -v /testdata/))"
go vet ./...
# The full ten-analyzer suite, including the dataflow checkers
# (mustrelease, lockpair) and the whole-program call graph (hotpath,
# deadcode).
go run ./cmd/dashdb-lint ./...
# Budget gate: one full-repo analysis-only run must stay inside the
# (generous) wall-time budget, so CFG/dataflow never makes this loop
# painful.
DASHDB_LINT_BUDGET=1 go test -run TestLintBudget -count=1 ./internal/lint/
# Both passes include TestEvalVecMatchesEval, which holds EvalVec to rowEval
# — the expression oracle, which lives only in _test.go — over its fixed 400
# seeds (under a second); the fuzz gate below keeps drawing seeds for 10 s.
go test ./...
go test -race ./...

# Low-memory gate: cap SORTHEAP at 1 MiB and HASHHEAP at 64 KB, which forces
# the external sort and the group-by partition spill under the engine suites'
# larger queries, and re-run the spill-parity property tests under race.
# Every spill run is batch blocks read back by vec.DecodeBlock, the decoder
# FuzzShuffleFrame and FuzzVectorDecode exercise under DASHDB_FUZZ=1.
# Sort buffers are typed columns charged as allocated, with each row's
# widest normalized key (62 B a row of every capacity reached for two numeric
# columns sorted by both), so a 1 MiB sort spills past 8 192 rows:
# TestMemoryGovernorSQL's default-heap `SELECT id FROM sales ORDER BY amount,
# id` over 20 000 rows shows `SORT [2 keys] [vectorized] ... [spill: runs=3,
# ...]` in EXPLAIN ANALYZE.
# Group state is charged as allocated (16-100 B a group), so the suites'
# largest group-by — TestDistinctSpills' `SELECT id, region ... UNION ...`,
# 6 000 groups, 237 KB of state — fits 1 MiB; at 64 KB its EXPLAIN ANALYZE
# shows `[spill: runs=86, ...]`. The Grace join charges the same key table
# plus typed build buffers (about 12 B a row beside its columns), so its
# spill does not depend on this gate either: tests that set their own heap
# cover it (TestJoinSpillsSQL in internal/core; TestHashJoinInputInvariance
# and TestHashJoinHeapStepping in internal/exec). Keyless joins (cross and
# theta) are charged to HASHHEAP too, one partition for the whole build, and
# are pinned by the same test: TestJoinSpillsSQL's BETWEEN self-join of reps
# joins in memory at the default heap and spills at 8 KB. Same package list
# and values as .github/workflows/ci.yml.
DASHDB_SORTHEAP=1MB DASHDB_HASHHEAP=64KB go test -race -count=1 ./internal/core/ ./internal/exec/ ./driver/

# Writers-active gate: the snapshot-isolation property suites — trickle
# INSERTs, bulk flushes, TRUNCATE and DROP racing the full query mix at
# dop 1/2/8 — re-run under the race detector, with the append parity test,
# whose tables at dop 2 and 8 encode and seal a column per worker, and the
# recycling tests: scans hand pooled vectors to the operators that copy
# them out, at dop 1 and 2, beside a writer's INSERTs, TRUNCATE and DROP.
# Same list as .github/workflows/ci.yml.
go test -race -count=1 \
	-run 'TestSnapshot|TestPin|TestCleanup|TestDrainOrder|TestReleaseIsExact|TestConcurrentPinPublish|TestTruncateDrains|TestConcurrentIngest|TestTruncateRacing|TestDropRacing|TestMultiRowInsert|TestBulk|TestUpdate|TestChange|TestAppendLanesMatchRows|TestRecycle|TestScanAllocsPerStride|TestAppendRowsSlab' \
	./internal/snapshot/ ./internal/columnar/ ./internal/core/ ./internal/exec/ ./internal/vec/ ./. ./driver/

if [ "${DASHDB_FUZZ:-0}" = "1" ]; then
	go test -run=NONE -fuzz=FuzzParseSQL -fuzztime=10s ./internal/sql/
	go test -run=NONE -fuzz=FuzzEncodingRoundTrip -fuzztime=10s ./internal/encoding/
	go test -run=NONE -fuzz=FuzzVectorDecode -fuzztime=10s ./internal/columnar/
	go test -run=NONE -fuzz=FuzzBulkAppend -fuzztime=10s ./internal/columnar/
	go test -run=NONE -fuzz=FuzzAppendLanesMatchRows -fuzztime=10s ./internal/columnar/
	go test -run=NONE -fuzz=FuzzShuffleFrame -fuzztime=10s ./internal/shardrpc/
	go test -run=NONE -fuzz=FuzzControlFrame -fuzztime=10s ./internal/shardrpc/
	go test -run=NONE -fuzz=FuzzStmtWire -fuzztime=10s ./internal/sql/
	go test -run=NONE -fuzz=FuzzEvalVecMatchesEval -fuzztime=10s ./internal/exec/
	go test -run=NONE -fuzz=FuzzSortOrder -fuzztime=10s ./internal/exec/
	go test -run=NONE -fuzz=FuzzJoinSpellings -fuzztime=10s ./internal/core/
	go test -run=NONE -fuzz=FuzzCompareRange -fuzztime=10s ./internal/bitpack/
fi
