package fluid

import (
	"testing"

	"dashdb/internal/core"
	"dashdb/internal/types"
)

func remoteWithData(t *testing.T, origin Origin) *RemoteServer {
	t.Helper()
	srv := NewRemoteServer(origin, "legacy-dw")
	err := srv.CreateTable("customers", types.Schema{
		{Name: "cid", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString, Nullable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = srv.Insert("customers", []types.Row{
		{types.NewInt(1), types.NewString("acme")},
		{types.NewInt(2), types.NewString("globex")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestRemoteServerBasics(t *testing.T) {
	srv := remoteWithData(t, OriginOracle)
	if err := srv.CreateTable("customers", nil); err == nil {
		t.Fatal("duplicate remote table must fail")
	}
	if err := srv.Insert("ghost", nil); err == nil {
		t.Fatal("insert into missing remote table must fail")
	}
	// Schema validation applies remotely too.
	if err := srv.Insert("customers", []types.Row{{types.Null, types.Null}}); err == nil {
		t.Fatal("NOT NULL violation must fail")
	}
}

func TestNicknameQueryThroughSQL(t *testing.T) {
	srv := remoteWithData(t, OriginImpala)
	db := core.Open(core.Config{BufferPoolBytes: 4 << 20})
	if err := CreateNickname(db.Catalog(), "remote_customers", srv, "customers"); err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession()
	r, err := sess.Exec(`SELECT COUNT(*) FROM remote_customers`)
	if err != nil || r.Rows[0][0].Int() != 2 {
		t.Fatalf("%v err %v", r, err)
	}
	// Join local data against the nickname (the paper's "bridges to
	// RDBMS islands" use case).
	sess.Exec(`CREATE TABLE orders (cid BIGINT, amt DOUBLE)`)
	sess.Exec(`INSERT INTO orders VALUES (1, 10), (1, 20), (2, 5)`)
	r, err = sess.Exec(`
		SELECT c.name, SUM(o.amt) FROM orders o
		JOIN remote_customers c ON o.cid = c.cid
		GROUP BY c.name ORDER BY c.name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][0].Str() != "acme" || r.Rows[0][1].Float() != 30 {
		t.Fatalf("federated join %v", r.Rows)
	}
}

func TestCreateNicknameErrors(t *testing.T) {
	srv := remoteWithData(t, OriginSQLServer)
	db := core.Open(core.Config{BufferPoolBytes: 4 << 20})
	if err := CreateNickname(db.Catalog(), "n", srv, "ghost"); err == nil {
		t.Fatal("nickname to missing remote table must fail")
	}
	if err := CreateNickname(db.Catalog(), "n", srv, "customers"); err != nil {
		t.Fatal(err)
	}
	if err := CreateNickname(db.Catalog(), "n", srv, "customers"); err == nil {
		t.Fatal("duplicate nickname must fail")
	}
	// DROP NICKNAME through SQL.
	sess := db.NewSession()
	if _, err := sess.Exec(`DROP NICKNAME n`); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(`SELECT * FROM n`); err == nil {
		t.Fatal("dropped nickname queryable")
	}
}

func TestAllOriginsHaveLatencyModels(t *testing.T) {
	for _, o := range []Origin{OriginOracle, OriginSQLServer, OriginDB2, OriginNetezza, OriginImpala} {
		if _, ok := perRowLatency[o]; !ok {
			t.Errorf("origin %s missing latency model", o)
		}
	}
}
