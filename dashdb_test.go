package dashdb_test

import (
	"sync"
	"testing"
	"time"

	"dashdb"
)

func TestOpenAndQuery(t *testing.T) {
	db := dashdb.Open(dashdb.Options{BufferPoolBytes: 8 << 20})
	if _, err := db.Exec(`CREATE TABLE t (a BIGINT NOT NULL, b VARCHAR(10))`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')`); err != nil {
		t.Fatal(err)
	}
	r, err := db.Query(`SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][1].Int() != 2 {
		t.Fatalf("rows %v", r.Rows)
	}
}

func TestAutoConfiguredOpen(t *testing.T) {
	hw := dashdb.Hardware{Cores: 8, RAMBytes: 16 << 30, StorageBytes: 100 << 30}
	db := dashdb.Open(dashdb.Options{Hardware: &hw, BufferPoolBytes: 4 << 20})
	cfg := db.Config()
	if cfg.Parallelism != 8 || cfg.BufferPoolBytes <= 0 {
		t.Fatalf("config %+v", cfg)
	}
}

func TestDialectSwitch(t *testing.T) {
	db := dashdb.Open(dashdb.Options{BufferPoolBytes: 4 << 20})
	db.SetDialect(dashdb.DialectOracle)
	r, err := db.Query(`SELECT NVL(NULL, 42) FROM DUAL`)
	if err != nil || r.Rows[0][0].Int() != 42 {
		t.Fatalf("oracle dialect: %v err %v", r, err)
	}
	s := db.NewSession()
	s.SetDialect(dashdb.DialectNetezza)
	r2, err := s.Exec(`SELECT 255::INT4`)
	if err != nil || r2.Rows[0][0].Int() != 255 {
		t.Fatalf("netezza dialect: %v err %v", r2, err)
	}
}

func TestCompressionReport(t *testing.T) {
	db := dashdb.Open(dashdb.Options{BufferPoolBytes: 16 << 20})
	db.Exec(`CREATE TABLE c (a BIGINT NOT NULL, s VARCHAR(20))`)
	sess := db.NewSession()
	for b := 0; b < 10; b++ {
		sql := "INSERT INTO c VALUES "
		for i := 0; i < 1000; i++ {
			if i > 0 {
				sql += ","
			}
			sql += "(1, 'constant-string')"
		}
		if _, err := sess.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	rep, ok := db.Compression("c")
	if !ok || rep.Ratio < 2 {
		t.Fatalf("compression %+v ok=%v", rep, ok)
	}
	if _, ok := db.Compression("missing"); ok {
		t.Fatal("missing table must report !ok")
	}
}

func TestDeployAndCluster(t *testing.T) {
	cl, err := dashdb.Deploy([]dashdb.HostSpec{
		{Name: "A", Cores: 8, RAMBytes: 64 << 30},
		{Name: "B", Cores: 8, RAMBytes: 64 << 30},
		{Name: "C", Cores: 8, RAMBytes: 64 << 30},
		{Name: "D", Cores: 8, RAMBytes: 64 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.DeployTime <= 0 || cl.DeployTime > 30*time.Minute {
		t.Fatalf("deploy time %v", cl.DeployTime)
	}
	if _, err := cl.Exec(`CREATE TABLE f (k BIGINT NOT NULL, v DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	var rows []dashdb.Row
	for i := 0; i < 5000; i++ {
		rows = append(rows, dashdb.Row{dashdb.NewInt(int64(i)), dashdb.NewFloat(float64(i))})
	}
	if err := cl.Insert("f", rows); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Exec(`SELECT COUNT(*), AVG(v) FROM f`)
	if err != nil || r.Rows[0][0].Int() != 5000 {
		t.Fatalf("cluster query %v err %v", r, err)
	}
	// Figure 9 failover through the public API.
	if err := cl.FailNode("D"); err != nil {
		t.Fatal(err)
	}
	r2, err := cl.Exec(`SELECT COUNT(*) FROM f`)
	if err != nil || r2.Rows[0][0].Int() != 5000 {
		t.Fatalf("post-failover %v err %v", r2, err)
	}
}

// TestClusterSparkConcurrent: two first callers of Spark get the one
// dispatcher (run it under -race).
func TestClusterSparkConcurrent(t *testing.T) {
	cl, err := dashdb.NewCluster([]dashdb.NodeSpec{{Name: "A", Cores: 2, MemBytes: 16 << 20}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var got [2]*dashdb.SparkDispatcher
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = cl.Spark()
		}()
	}
	wg.Wait()
	if got[0] == nil || got[0] != got[1] || cl.Spark() != got[0] {
		t.Fatalf("dispatchers %p and %p", got[0], got[1])
	}
}

func TestClusterSpark(t *testing.T) {
	cl, err := dashdb.NewCluster([]dashdb.NodeSpec{
		{Name: "A", Cores: 2, MemBytes: 16 << 20},
		{Name: "B", Cores: 2, MemBytes: 16 << 20},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.CreateTable("pts", dashdb.Schema{
		{Name: "id", Kind: dashdb.KindInt},
		{Name: "x", Kind: dashdb.KindFloat, Nullable: true},
		{Name: "y", Kind: dashdb.KindFloat, Nullable: true},
	}, dashdb.TableOptions{DistributeBy: "id"})
	var rows []dashdb.Row
	for i := 0; i < 500; i++ {
		x := float64(i % 10)
		rows = append(rows, dashdb.Row{dashdb.NewInt(int64(i)), dashdb.NewFloat(x), dashdb.NewFloat(2*x + 1)})
	}
	cl.Insert("pts", rows)

	d := cl.Spark()
	id := d.SubmitFunc("ana", "fit", func(ctx *dashdb.SparkContext) (interface{}, error) {
		return ctx.TrainGLM("pts", "", "y", []string{"x"}, dashdb.Gaussian)
	})
	res, err := d.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	m := res.(*dashdb.GLMModel)
	if m.Weights[0] < 1.9 || m.Weights[0] > 2.1 {
		t.Fatalf("slope %v", m.Weights)
	}
}

func TestExtensionsSurface(t *testing.T) {
	db := dashdb.Open(dashdb.Options{BufferPoolBytes: 8 << 20})
	db.RegisterAnalytics()
	db.Exec(`CREATE TABLE m (x DOUBLE, y DOUBLE)`)
	db.Exec(`INSERT INTO m VALUES (1, 3), (2, 5), (3, 7), (4, 9)`)
	r, err := db.Exec(`CALL LINEAR_REGRESSION('m', 'y', 'x')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("regression output %v", r.Rows)
	}
	// CSV external table.
	if err := db.RegisterCSV("ext", "a,b\n1,x\n2,y\n"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT SUM(a) FROM ext`)
	if err != nil || res.Rows[0][0].Int() != 3 {
		t.Fatalf("csv query %v err %v", res, err)
	}
	// Fluid nickname.
	srv := dashdb.NewRemoteServer(dashdb.OriginNetezza, "nz1")
	srv.CreateTable("t", dashdb.Schema{{Name: "k", Kind: dashdb.KindInt}})
	srv.Insert("t", []dashdb.Row{{dashdb.NewInt(42)}})
	if err := db.CreateNickname("nz_t", srv, "t"); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(`SELECT k FROM nz_t`)
	if err != nil || res.Rows[0][0].Int() != 42 {
		t.Fatalf("nickname %v err %v", res, err)
	}
}

func TestPublicCheckpointRestore(t *testing.T) {
	src, err := dashdb.NewCluster([]dashdb.NodeSpec{
		{Name: "A", Cores: 4, MemBytes: 32 << 20},
		{Name: "B", Cores: 4, MemBytes: 32 << 20},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	src.Exec(`CREATE TABLE t (a BIGINT NOT NULL)`)
	var rows []dashdb.Row
	for i := 0; i < 2000; i++ {
		rows = append(rows, dashdb.Row{dashdb.NewInt(int64(i))})
	}
	src.Insert("t", rows)
	if err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	restored, err := dashdb.Restore([]dashdb.NodeSpec{
		{Name: "Q", Cores: 8, MemBytes: 64 << 20},
	}, src.FSSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	r, err := restored.Exec(`SELECT COUNT(*), SUM(a) FROM t`)
	if err != nil || r.Rows[0][0].Int() != 2000 {
		t.Fatalf("restored query %v err %v", r, err)
	}
}
