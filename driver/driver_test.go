package driver

import (
	"database/sql"
	"testing"
	"time"
)

func openDB(t *testing.T, dsn string) *sql.DB {
	t.Helper()
	db, err := sql.Open("dashdb", dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestBasicRoundTrip(t *testing.T) {
	db := openDB(t, "mem://t_basic")
	if _, err := db.Exec(`CREATE TABLE people (id BIGINT NOT NULL, name VARCHAR(32), score DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`INSERT INTO people VALUES (?, ?, ?), (?, ?, ?)`,
		1, "ann", 9.5, 2, "bob", 7.25)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 2 {
		t.Fatalf("rows affected %d", n)
	}
	rows, err := db.Query(`SELECT id, name, score FROM people WHERE score > ? ORDER BY id`, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var (
		ids    []int64
		names  []string
		scores []float64
	)
	for rows.Next() {
		var id int64
		var name string
		var score float64
		if err := rows.Scan(&id, &name, &score); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		names = append(names, name)
		scores = append(scores, score)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || names[0] != "ann" || scores[1] != 7.25 {
		t.Fatalf("scan: %v %v %v", ids, names, scores)
	}
}

func TestNullsAndTime(t *testing.T) {
	db := openDB(t, "mem://t_nulls")
	db.Exec(`CREATE TABLE ev (id BIGINT NOT NULL, at TIMESTAMP, note VARCHAR(20))`)
	when := time.Date(2016, 6, 15, 10, 30, 0, 0, time.UTC)
	if _, err := db.Exec(`INSERT INTO ev VALUES (?, ?, ?)`, 1, when, nil); err != nil {
		t.Fatal(err)
	}
	var got time.Time
	var note sql.NullString
	if err := db.QueryRow(`SELECT at, note FROM ev WHERE id = ?`, 1).Scan(&got, &note); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(when) {
		t.Fatalf("time %v want %v", got, when)
	}
	if note.Valid {
		t.Fatal("NULL did not round-trip")
	}
}

func TestPreparedStatementReuse(t *testing.T) {
	db := openDB(t, "mem://t_prep")
	db.Exec(`CREATE TABLE n (v BIGINT)`)
	st, err := db.Prepare(`INSERT INTO n VALUES (?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 50; i++ {
		if _, err := st.Exec(i); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	if err := db.QueryRow(`SELECT SUM(v) FROM n`).Scan(&total); err != nil {
		t.Fatal(err)
	}
	if total != 49*50/2 {
		t.Fatalf("sum %d", total)
	}
}

func TestSharedInstance(t *testing.T) {
	a := openDB(t, "mem://t_shared")
	b := openDB(t, "mem://t_shared")
	other := openDB(t, "mem://t_other")
	a.Exec(`CREATE TABLE s (v BIGINT)`)
	a.Exec(`INSERT INTO s VALUES (7)`)
	var v int64
	if err := b.QueryRow(`SELECT v FROM s`).Scan(&v); err != nil || v != 7 {
		t.Fatalf("shared instance: %v %v", v, err)
	}
	if err := other.QueryRow(`SELECT v FROM s`).Scan(&v); err == nil {
		t.Fatal("instances must be isolated by name")
	}
}

func TestDialectDSN(t *testing.T) {
	db := openDB(t, "mem://t_dialect?dialect=oracle")
	var s string
	if err := db.QueryRow(`SELECT NVL(NULL, 'fallback') FROM DUAL`).Scan(&s); err != nil {
		t.Fatal(err)
	}
	if s != "fallback" {
		t.Fatalf("oracle dialect via DSN: %q", s)
	}
	if _, err := sql.Open("dashdb", "tcp://nope"); err == nil {
		// sql.Open defers driver.Open; force a connection.
		bad, _ := sql.Open("dashdb", "tcp://nope")
		if bad.Ping() == nil {
			t.Fatal("bad scheme must fail")
		}
	}
}

func TestParameterCountMismatch(t *testing.T) {
	db := openDB(t, "mem://t_params")
	db.Exec(`CREATE TABLE p (v BIGINT)`)
	if _, err := db.Exec(`INSERT INTO p VALUES (?)`); err == nil {
		t.Fatal("missing binding must fail")
	}
}

func TestQueryNoResultSet(t *testing.T) {
	db := openDB(t, "mem://t_ddl")
	rows, err := db.Query(`CREATE TABLE q (v BIGINT)`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if rows.Next() {
		t.Fatal("DDL has no rows")
	}
}

// TestParametersAfterAggregation: a ? marker binds in HAVING and in a
// select item over an aggregate exactly as it does in WHERE.
func TestParametersAfterAggregation(t *testing.T) {
	db := openDB(t, "mem://t_postagg")
	if _, err := db.Exec(`CREATE TABLE t (g VARCHAR(4), name VARCHAR(10), x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES ('a','Sam',1),('a','Sue',2),('b','Bob',3),('b',NULL,4),('c',NULL,5)`); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT g FROM t GROUP BY g HAVING COUNT(*) > ? ORDER BY g`, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var groups []string
	for rows.Next() {
		var g string
		if err := rows.Scan(&g); err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || groups[0] != "a" || groups[1] != "b" {
		t.Fatalf("HAVING COUNT(*) > ? with 1: %v, want [a b]", groups)
	}
	var total int64
	if err := db.QueryRow(`SELECT SUM(x) * ? FROM t`, 2).Scan(&total); err != nil {
		t.Fatal(err)
	}
	if total != 30 {
		t.Fatalf("SUM(x) * ? with 2: %d, want 30", total)
	}
}
