# The lists of the gates scripts/verify.sh and .github/workflows/ci.yml
# both run, each written once here. Source this file from the repository
# root and call a gate:
#
#   . scripts/gates.sh
#   lowmem_gate          # the race suites under a 1 MiB SORTHEAP, 64 KB HASHHEAP
#   writers_gate         # the snapshot-isolation suites under race, writers active
#   fuzz_gate [group]    # 10 s of each fuzz target of group codec, stride or
#                        # kernels (CI's three fuzz steps), or of all three

# The low-memory gate's packages.
LOWMEM_PKGS='./internal/core/ ./internal/exec/ ./driver/'

lowmem_gate() {
	DASHDB_SORTHEAP=1MB DASHDB_HASHHEAP=64KB go test -race -timeout 30m -count=1 $LOWMEM_PKGS
}

# The writers-active gate's tests and packages.
WRITERS_RUN='TestSnapshot|TestPin|TestCleanup|TestDrainOrder|TestReleaseIsExact|TestConcurrentPinPublish|TestTruncateDrains|TestConcurrentIngest|TestTruncateRacing|TestDropRacing|TestMultiRowInsert|TestBulk|TestUpdate|TestChange|TestAppendLanesMatchRows|TestRecycle|TestScanAllocsPerStride|TestAppendRowsSlab|TestBoundedLimitUnderWriter|TestScanBoundSelects|TestBoundTightens'
WRITERS_PKGS='./internal/snapshot/ ./internal/columnar/ ./internal/core/ ./internal/exec/ ./internal/vec/ ./. ./driver/'

writers_gate() {
	go test -race -count=1 -run "$WRITERS_RUN" $WRITERS_PKGS
}

# The fuzz targets, target:package, in three groups. codec: what reads
# bytes from the network or a spill file (batch blocks, the value codec,
# control messages, persisted blobs, the statement codec), the encoders'
# round trip and the SQL front end. stride: every encoder's typed decode,
# bulk appends racing a truncate and a scan, one table image however a
# load arrives. kernels: the packed-code range kernel, the sealed page's
# round trip and decoder, the sort's normalized-key order, every
# expression node's EvalVec and the join spellings.
FUZZ_CODEC='FuzzShuffleFrame:./internal/shardrpc/ FuzzControlFrame:./internal/shardrpc/ FuzzStmtWire:./internal/sql/ FuzzEncodingRoundTrip:./internal/encoding/ FuzzParseSQL:./internal/sql/'
FUZZ_STRIDE='FuzzVectorDecode:./internal/columnar/ FuzzBulkAppend:./internal/columnar/ FuzzAppendLanesMatchRows:./internal/columnar/'
FUZZ_KERNELS='FuzzCompareRange:./internal/bitpack/ FuzzPageRoundTrip:./internal/page/ FuzzPageUnmarshal:./internal/page/ FuzzSortOrder:./internal/exec/ FuzzEvalVecMatchesEval:./internal/exec/ FuzzJoinSpellings:./internal/core/'

fuzz_gate() {
	case "${1:-all}" in
	codec) fuzz_targets=$FUZZ_CODEC ;;
	stride) fuzz_targets=$FUZZ_STRIDE ;;
	kernels) fuzz_targets=$FUZZ_KERNELS ;;
	all) fuzz_targets="$FUZZ_CODEC $FUZZ_STRIDE $FUZZ_KERNELS" ;;
	*)
		echo "fuzz_gate: unknown group $1" >&2
		return 2
		;;
	esac
	for fuzz_target in $fuzz_targets; do
		go test -run=NONE -fuzz="${fuzz_target%%:*}" -fuzztime=10s "${fuzz_target#*:}" || return
	done
}
