#!/usr/bin/env bash
# Two-process cluster smoke: boots two shard-server processes
# (dashdb-local -shard-listen) over one shared clusterfs directory,
# connects the coordinator CLI (dashdbctl -connect), loads two tables and
# runs one statement per placement of the distributed SELECT — a COUNT
# (scatter), a two-table join (shuffle exchange) and a MEDIAN (gather) —
# plus a join whose conjuncts run in the shuffle stages, a LEFT join whose
# null-supplying side's IS NULL must stay above it, and a point lookup
# asked of the one shard owning its key; copies rows into a third table
# with INSERT … SELECT through a column list that reverses its columns;
# then declares one node dead and checks the survivors give the same
# answers: the minimal end-to-end exercise of the shard RPC boundary, its
# one statement frame, the batches a result crosses processes in and HA
# failover across real processes.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
CFS=$(mktemp -d)
P1=""
P2=""
cleanup() {
	[ -n "$P1" ] && kill "$P1" 2>/dev/null || true
	[ -n "$P2" ] && kill "$P2" 2>/dev/null || true
	rm -rf "$BIN" "$CFS"
}
trap cleanup EXIT

go build -o "$BIN/dashdb-local" ./cmd/dashdb-local
go build -o "$BIN/dashdbctl" ./cmd/dashdbctl

PORT1=${DASHDB_SMOKE_PORT1:-18060}
PORT2=${DASHDB_SMOKE_PORT2:-18061}

"$BIN/dashdb-local" -shard-listen 127.0.0.1:"$PORT1" -clusterfs "$CFS" -node nodeA &
P1=$!
"$BIN/dashdb-local" -shard-listen 127.0.0.1:"$PORT2" -clusterfs "$CFS" -node nodeB &
P2=$!

# Wait for both listeners to come up.
for port in "$PORT1" "$PORT2"; do
	for i in $(seq 1 100); do
		if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
			exec 3>&- 3<&-
			break
		fi
		if [ "$i" = 100 ]; then
			echo "cluster_smoke: shard server on port $port never came up" >&2
			exit 1
		fi
		sleep 0.1
	done
done

out=$("$BIN/dashdbctl" -connect 127.0.0.1:"$PORT1",127.0.0.1:"$PORT2" -clusterfs "$CFS" -shards 4 <<'EOF'
status
load sm 500
load sm2 300
sql SELECT COUNT(*) FROM sm
sql SELECT COUNT(*), SUM(a.v) FROM sm a JOIN sm2 b ON a.v = b.v
sql SELECT MEDIAN(v) FROM sm
sql SELECT COUNT(*), SUM(a.v) FROM sm a JOIN sm2 b ON a.v = b.v WHERE a.id < 100 AND b.id >= 50
sql SELECT COUNT(*) FROM sm a LEFT JOIN sm2 b ON a.v = b.v WHERE b.id IS NULL
sql SELECT v FROM sm WHERE id = 123
sql CREATE TABLE sm3 (a BIGINT, b BIGINT)
sql INSERT INTO sm3 (b, a) SELECT id, id + 1000 FROM sm WHERE id < 3
sql SELECT a, b FROM sm3
fail nodeB
sql SELECT COUNT(*) FROM sm
sql SELECT COUNT(*), SUM(a.v) FROM sm a JOIN sm2 b ON a.v = b.v
sql SELECT MEDIAN(v) FROM sm
sql SELECT COUNT(*), SUM(a.v) FROM sm a JOIN sm2 b ON a.v = b.v WHERE a.id < 100 AND b.id >= 50
sql SELECT COUNT(*) FROM sm a LEFT JOIN sm2 b ON a.v = b.v WHERE b.id IS NULL
sql SELECT v FROM sm WHERE id = 123
sql SELECT a, b FROM sm3
quit
EOF
)
echo "$out"

# load fills v = id % 997 for id < rows, so v is unique in both tables and
# the join on v (not the distribution key) matches sm2's 300 rows with
# SUM(a.v) = 299*300/2; the median of sm's 0..499 is 249.5. The filtered
# join keeps v in 50..99 (SUM 3725); 200 of sm's rows match nothing in sm2
# (pushing b.id IS NULL below the LEFT join would count all 500). The
# column list puts sm's id in sm3's b and id + 1000 in its a.
TAB=$(printf '\t')
echo "$out" | grep -q "nodeA:2 nodeB:2" || { echo "cluster_smoke: FAIL initial association" >&2; exit 1; }
echo "$out" | grep -q "OK loaded 500 rows" || { echo "cluster_smoke: FAIL load" >&2; exit 1; }
echo "$out" | grep -q "OK loaded 300 rows" || { echo "cluster_smoke: FAIL load of the second table" >&2; exit 1; }
[ "$(echo "$out" | grep -cx '500')" -eq 2 ] || { echo "cluster_smoke: FAIL count (before/after failover)" >&2; exit 1; }
[ "$(echo "$out" | grep -cx "300${TAB}44850")" -eq 2 ] || { echo "cluster_smoke: FAIL two-table join (before/after failover)" >&2; exit 1; }
[ "$(echo "$out" | grep -cx '249.5')" -eq 2 ] || { echo "cluster_smoke: FAIL median (before/after failover)" >&2; exit 1; }
[ "$(echo "$out" | grep -cx "50${TAB}3725")" -eq 2 ] || { echo "cluster_smoke: FAIL filtered join (before/after failover)" >&2; exit 1; }
[ "$(echo "$out" | grep -cx '200')" -eq 2 ] || { echo "cluster_smoke: FAIL LEFT join IS NULL (before/after failover)" >&2; exit 1; }
[ "$(echo "$out" | grep -cx '123')" -eq 2 ] || { echo "cluster_smoke: FAIL point lookup (before/after failover)" >&2; exit 1; }
for row in "1000${TAB}0" "1001${TAB}1" "1002${TAB}2"; do
	[ "$(echo "$out" | grep -cx "$row")" -eq 2 ] || { echo "cluster_smoke: FAIL INSERT … SELECT column list (before/after failover)" >&2; exit 1; }
done
echo "$out" | grep -q "nodeA:4" || { echo "cluster_smoke: FAIL failover re-association" >&2; exit 1; }

echo "cluster_smoke: PASS — 2-process cluster ran scatter, pinned, shuffle-join, gather and INSERT … SELECT statements and survived a node death"
