package spark

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"dashdb/internal/analytics"
	"dashdb/internal/clusterfs"
	"dashdb/internal/core"
	"dashdb/internal/mpp"
	"dashdb/internal/shardrpc"
	"dashdb/internal/types"
)

// newCluster forms a cluster of n nodes with two shards each: in this
// process, or, with socket set, behind n shard servers on loopback
// sockets that share one clustered filesystem.
func newCluster(t testing.TB, n int, socket bool) *mpp.NetCluster {
	t.Helper()
	nodes := make([]mpp.NetNode, n)
	for i := range nodes {
		nodes[i] = mpp.NetNode{Name: string(rune('A' + i)), Cores: 4, MemBytes: 32 << 20}
	}
	var c *mpp.NetCluster
	var err error
	if socket {
		fs := clusterfs.New()
		for i := range nodes {
			srv := shardrpc.NewServer(nodes[i].Name, fs)
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			nodes[i].Addr = srv.Addr()
		}
		c, err = mpp.NewNetCluster(nodes, 2*n, fs)
	} else {
		c, err = mpp.NewCluster(nodes, 2, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// forEachClient runs a test once per way the coordinator reaches its
// shards: in-process engines and shard servers behind sockets.
func forEachClient(t *testing.T, test func(t *testing.T, socket bool)) {
	for _, socket := range []bool{false, true} {
		name := "local"
		if socket {
			name = "socket"
		}
		t.Run(name, func(t *testing.T) { test(t, socket) })
	}
}

// loadPoints creates the points table, label = 3*x1 - 2*x2 + 5 exactly.
func loadPoints(t testing.TB, c *mpp.NetCluster, rows int) {
	t.Helper()
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "x1", Kind: types.KindFloat, Nullable: true},
		{Name: "x2", Kind: types.KindFloat, Nullable: true},
		{Name: "label", Kind: types.KindFloat, Nullable: true},
	}
	if err := c.CreateTable("points", schema, mpp.TableOptions{DistributeBy: "id"}); err != nil {
		t.Fatal(err)
	}
	var batch []types.Row
	for i := 0; i < rows; i++ {
		x1 := float64(i%100) / 10
		x2 := float64((i*7)%100) / 10
		label := 3*x1 - 2*x2 + 5 // exact linear relationship
		batch = append(batch, types.Row{
			types.NewInt(int64(i)),
			types.NewFloat(x1),
			types.NewFloat(x2),
			types.NewFloat(label),
		})
	}
	if err := c.Insert("points", batch); err != nil {
		t.Fatal(err)
	}
}

// newDispatcher is a dispatcher over an in-process 2-node, 4-shard
// cluster holding rows points.
func newDispatcher(t testing.TB, rows int) (*mpp.NetCluster, *Dispatcher) {
	t.Helper()
	c := newCluster(t, 2, false)
	loadPoints(t, c, rows)
	return c, NewDispatcher(c)
}

// run submits app for alice and waits for its result.
func run(t testing.TB, d *Dispatcher, app App) (interface{}, error) {
	t.Helper()
	return d.Wait(d.SubmitFunc("alice", "app", app))
}

// countOf is an application counting a table read's rows.
func countOf(table, where string, cols ...string) App {
	return func(ctx *Context) (interface{}, error) {
		ds, err := ctx.Table(table, where, cols...)
		if err != nil {
			return nil, err
		}
		return ds.Count(), nil
	}
}

func TestDatasetTableLoad(t *testing.T) {
	_, d := newDispatcher(t, 1000)
	id := d.SubmitFunc("alice", "load", func(ctx *Context) (interface{}, error) {
		ds, err := ctx.Table("points", "")
		if err != nil {
			return nil, err
		}
		return ds.Count(), nil
	})
	res, err := d.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 1000 {
		t.Fatalf("count %v", res)
	}
}

func TestDatasetPartitionsMatchShards(t *testing.T) {
	c, d := newDispatcher(t, 400)
	id := d.SubmitFunc("alice", "parts", func(ctx *Context) (interface{}, error) {
		ds, err := ctx.Table("points", "")
		if err != nil {
			return nil, err
		}
		return ds.Partitions(), nil
	})
	res, err := d.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != c.NShards() {
		t.Fatalf("partitions %v, shards %d", res, c.NShards())
	}
}

// TestPushdownReducesTransfer: a pushed-down WHERE moves exactly the
// rows that qualify, and on sockets a matching share of the bytes.
func TestPushdownReducesTransfer(t *testing.T) {
	forEachClient(t, func(t *testing.T, socket bool) {
		c := newCluster(t, 2, socket)
		loadPoints(t, c, 2000)
		d := NewDispatcher(c)
		moved := func(where string) (rows, bytes uint64) {
			before := c.Stats()
			if _, err := run(t, d, countOf("points", where)); err != nil {
				t.Fatal(err)
			}
			after := c.Stats()
			return after.PulledRows - before.PulledRows, after.PulledBytes - before.PulledBytes
		}
		fullRows, fullBytes := moved("")
		pushedRows, pushedBytes := moved("id < 100")
		if fullRows != 2000 || pushedRows != 100 {
			t.Fatalf("rows moved: %d full, %d pushed; want 2000 and 100", fullRows, pushedRows)
		}
		if !socket {
			return // in-process shards move no bytes
		}
		if pushedBytes == 0 || pushedBytes*10 > fullBytes {
			t.Fatalf("bytes moved: %d full, %d pushed; want the pushed read at most a tenth", fullBytes, pushedBytes)
		}
	})
}

func TestMapFilterCollect(t *testing.T) {
	_, d := newDispatcher(t, 500)
	id := d.SubmitFunc("alice", "mf", func(ctx *Context) (interface{}, error) {
		ds, err := ctx.Table("points", "", "ID", "X1")
		if err != nil {
			return nil, err
		}
		doubled := ds.Map(func(r types.Row) types.Row {
			return types.Row{r[0], types.NewFloat(r[1].Float() * 2)}
		})
		big := doubled.Filter(func(r types.Row) bool { return r[1].Float() > 15 })
		return big.Count(), nil
	})
	res, err := d.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	// x1 in [0,9.9], doubled > 15 ⇔ x1 > 7.5 ⇔ i%100 in 76..99 → 24%.
	if res.(int) != 500*24/100 {
		t.Fatalf("filtered count %v", res)
	}
}

func TestReduceByKey(t *testing.T) {
	_, d := newDispatcher(t, 100)
	id := d.SubmitFunc("alice", "rbk", func(ctx *Context) (interface{}, error) {
		rows := []types.Row{
			{types.NewString("a"), types.NewInt(1)},
			{types.NewString("b"), types.NewInt(10)},
			{types.NewString("a"), types.NewInt(2)},
		}
		ds := ctx.Parallelize(rows)
		m := ds.ReduceByKey(0, 1, func(a, b types.Value) types.Value {
			return types.NewInt(a.Int() + b.Int())
		})
		return m[types.NewString("a")].Int(), nil
	})
	res, err := d.Wait(id)
	if err != nil || res.(int64) != 3 {
		t.Fatalf("reduceByKey %v err %v", res, err)
	}
}

// loadFloats creates table with an id distribution key and one DOUBLE
// column per name, holding rows.
func loadFloats(t testing.TB, c *mpp.NetCluster, table string, names []string, rows [][]float64) {
	t.Helper()
	schema := types.Schema{{Name: "id", Kind: types.KindInt}}
	for _, n := range names {
		schema = append(schema, types.Column{Name: n, Kind: types.KindFloat, Nullable: true})
	}
	if err := c.CreateTable(table, schema, mpp.TableOptions{DistributeBy: "id"}); err != nil {
		t.Fatal(err)
	}
	batch := make([]types.Row, len(rows))
	for i, r := range rows {
		batch[i] = types.Row{types.NewInt(int64(i))}
		for _, v := range r {
			batch[i] = append(batch[i], types.NewFloat(v))
		}
	}
	if err := c.Insert(table, batch); err != nil {
		t.Fatal(err)
	}
}

func TestGLMLinearRegression(t *testing.T) {
	_, d := newDispatcher(t, 2000)
	res, err := run(t, d, func(ctx *Context) (interface{}, error) {
		return ctx.TrainGLM("points", "", "label", []string{"x1", "x2"}, Gaussian)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.(*GLMModel)
	// True model: label = 3*x1 - 2*x2 + 5.
	if math.Abs(m.Weights[0]-3) > 0.05 || math.Abs(m.Weights[1]+2) > 0.05 || math.Abs(m.Intercept-5) > 0.2 {
		t.Fatalf("GLM fit w=%v b=%v", m.Weights, m.Intercept)
	}
	if p := m.Predict([]float64{1, 1}); math.Abs(p-6) > 0.3 {
		t.Fatalf("predict %v", p)
	}
}

func TestGLMLogisticRegression(t *testing.T) {
	c, d := newDispatcher(t, 100)
	// Separable data: label = 1 iff x > 5.
	var rows [][]float64
	for i := 0; i < 400; i++ {
		x := float64(i % 10)
		label := 0.0
		if x > 5 {
			label = 1
		}
		rows = append(rows, []float64{x, label})
	}
	loadFloats(t, c, "logit", []string{"x", "label"}, rows)
	res, err := run(t, d, func(ctx *Context) (interface{}, error) {
		return ctx.TrainGLM("logit", "", "label", []string{"x"}, Binomial)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.(*GLMModel)
	if m.Predict([]float64{9}) < 0.8 || m.Predict([]float64{1}) > 0.2 {
		t.Fatalf("logistic fit predicts %v / %v", m.Predict([]float64{9}), m.Predict([]float64{1}))
	}
}

func TestKMeans(t *testing.T) {
	c, d := newDispatcher(t, 100)
	var rows [][]float64
	for i := 0; i < 50; i++ {
		rows = append(rows, []float64{float64(i % 5), 0}, []float64{100 + float64(i%5), 0})
	}
	loadFloats(t, c, "blobs", []string{"a", "b"}, rows)
	res, err := run(t, d, func(ctx *Context) (interface{}, error) {
		return ctx.KMeans("blobs", "", []string{"a", "b"}, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.(*KMeansModel)
	lo, hi := m.Centers[0][0], m.Centers[1][0]
	if lo > hi {
		lo, hi = hi, lo
	}
	if math.Abs(lo-2) > 1 || math.Abs(hi-102) > 1 {
		t.Fatalf("centers %v", m.Centers)
	}
	if m.Sizes[0] != 50 || m.Sizes[1] != 50 {
		t.Fatalf("sizes %v: the clusters are not separated", m.Sizes)
	}
}

func TestPerUserIsolation(t *testing.T) {
	_, d := newDispatcher(t, 100)
	idA := d.SubmitFunc("alice", "a", func(ctx *Context) (interface{}, error) { return 1, nil })
	idB := d.SubmitFunc("bob", "b", func(ctx *Context) (interface{}, error) { return 2, nil })
	d.Wait(idA)
	d.Wait(idB)
	d.mu.Lock()
	managers := len(d.managers)
	d.mu.Unlock()
	if managers != 2 {
		t.Fatalf("managers %d, want one per user", managers)
	}
	// Users cannot see each other's jobs.
	if _, err := d.Status("alice", idB); err == nil {
		t.Fatal("alice must not see bob's job")
	}
	if jobs := d.Jobs("alice"); len(jobs) != 1 || jobs[0].ID != idA {
		t.Fatalf("alice's jobs %v", jobs)
	}
}

func TestJobLifecycleAndFailure(t *testing.T) {
	_, d := newDispatcher(t, 10)
	id := d.SubmitFunc("alice", "boom", func(ctx *Context) (interface{}, error) {
		return nil, errFromApp
	})
	if _, err := d.Wait(id); err == nil {
		t.Fatal("failing app must surface error")
	}
	st, _ := d.Status("alice", id)
	if st.State != JobFailed {
		t.Fatalf("state %v", st.State)
	}
	// Panic containment.
	id2 := d.SubmitFunc("alice", "panic", func(ctx *Context) (interface{}, error) {
		panic("kaboom")
	})
	if _, err := d.Wait(id2); err == nil {
		t.Fatal("panicking app must surface error")
	}
	// Unregistered app.
	if _, err := d.Submit("alice", "ghost"); err == nil {
		t.Fatal("unregistered app must fail")
	}
}

var errFromApp = errTest("app failed")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestJobCancel(t *testing.T) {
	_, d := newDispatcher(t, 100)
	started := make(chan bool)
	id := d.SubmitFunc("alice", "slow", func(ctx *Context) (interface{}, error) {
		close(started)
		for i := 0; i < 1000; i++ {
			time.Sleep(time.Millisecond)
			ctx.checkCancelled()
		}
		return nil, nil
	})
	<-started
	if err := d.Cancel("alice", id); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(id); err == nil {
		t.Fatal("cancelled job must not succeed")
	}
	st, _ := d.Status("alice", id)
	if st.State != JobCancelled {
		t.Fatalf("state %v", st.State)
	}
	if st.Err != "cancelled by user" || st.Finished.Before(st.Submitted) {
		t.Fatalf("cancelled job: Err %q, submitted %v, finished %v", st.Err, st.Submitted, st.Finished)
	}
}

// TestSQLProceduresCheckOwner: through SQL, as through REST, a user can
// neither cancel nor wait for another user's job.
func TestSQLProceduresCheckOwner(t *testing.T) {
	c, d := newDispatcher(t, 10)
	release := make(chan struct{})
	defer close(release)
	id := d.SubmitFunc("alice", "held", func(ctx *Context) (interface{}, error) {
		<-release
		return 1, nil
	})
	db := c.ShardEngines()[0]
	RegisterProcedures(db, d)
	mallory := db.NewSession()
	mallory.SetUser("mallory")
	call := fmt.Sprintf("(%d)", id)
	if _, err := mallory.Exec("CALL SPARK_CANCEL" + call); err == nil {
		t.Error("mallory cancelled alice's job")
	}
	if st, _ := d.Status("alice", id); st.State == JobCancelled {
		t.Error("alice's job is cancelled")
	}
	waited := make(chan error, 1)
	go func() {
		_, err := mallory.Exec("CALL SPARK_WAIT" + call)
		waited <- err
	}()
	select {
	case err := <-waited:
		if err == nil {
			t.Error("mallory waited for alice's job")
		}
	case <-time.After(10 * time.Second):
		t.Error("SPARK_WAIT blocked on another user's job")
	}
}

func TestRegisteredAppAndSQLProcedures(t *testing.T) {
	c, d := newDispatcher(t, 500)
	d.RegisterApp("countPoints", func(ctx *Context) (interface{}, error) {
		ds, err := ctx.Table("points", "")
		if err != nil {
			return nil, err
		}
		return ds.Count(), nil
	})
	// SQL interface on shard 0's engine.
	db := c.ShardEngines()[0]
	RegisterProcedures(db, d)
	sess := db.NewSession()
	sess.SetUser("carol")
	r, err := sess.Exec(`CALL SPARK_SUBMIT('countPoints')`)
	if err != nil {
		t.Fatal(err)
	}
	jobID := r.Rows[0][0].Int()
	if _, err := sess.Exec(`CALL SPARK_WAIT(` + r.Rows[0][0].String() + `)`); err != nil {
		t.Fatal(err)
	}
	st, err := sess.Exec(`CALL SPARK_STATUS(` + r.Rows[0][0].String() + `)`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows[0][2].Str() != "DONE" {
		t.Fatalf("status %v", st.Rows[0])
	}
	res, err := d.Wait(jobID)
	if err != nil || res.(int) != 500 {
		t.Fatalf("result %v err %v", res, err)
	}
}

// TestTableReadErrors: a read of a table or column that does not exist
// is an error, as is a WHERE that is not one expression over the table.
func TestTableReadErrors(t *testing.T) {
	_, d := newDispatcher(t, 10)
	for _, bad := range []App{
		countOf("no_such_table", ""),
		countOf("points", "", "id", "nope"),
		countOf("points", "nope > 1"),
		countOf("points", "other.id > 1"),
		countOf("points", "id >"),
		countOf("points", "id > 1;"),
	} {
		if _, err := run(t, d, bad); err == nil {
			t.Error("a bad read succeeded")
		}
	}
}

// TestTableReadStaysInTable: neither the WHERE nor the columns of a read
// reach another table. Built as text, the first read once returned
// secret's row inside the points Dataset.
func TestTableReadStaysInTable(t *testing.T) {
	c, d := newDispatcher(t, 10)
	schema := types.Schema{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt},
		{Name: "c", Kind: types.KindInt}, {Name: "e", Kind: types.KindInt}}
	if err := c.CreateTable("secret", schema, mpp.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("secret", []types.Row{{types.NewInt(42), types.NewInt(0), types.NewInt(0), types.NewInt(0)}}); err != nil {
		t.Fatal(err)
	}
	for _, read := range []App{
		countOf("points", "id < 0 UNION ALL SELECT * FROM secret"),
		countOf("points", "id IN (SELECT a FROM secret)"),
		countOf("points", "EXISTS (SELECT a FROM secret)"),
		countOf("points", "", "id", "(SELECT MAX(a) FROM secret)"),
	} {
		if res, err := run(t, d, read); err == nil {
			t.Errorf("a read reaching another table returned %v", res)
		}
	}
}

// TestReplicatedTableCountsOnce: every shard holds a replicated table
// whole, so its Dataset is one copy, as SQL counts it.
func TestReplicatedTableCountsOnce(t *testing.T) {
	c, d := newDispatcher(t, 10)
	if err := c.CreateTable("dim", types.Schema{{Name: "k", Kind: types.KindInt}}, mpp.TableOptions{Replicated: true}); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := range 7 {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	if err := c.Insert("dim", rows); err != nil {
		t.Fatal(err)
	}
	r, err := c.Query("SELECT COUNT(*) FROM dim")
	if err != nil || r.Rows[0][0].Int() != 7 {
		t.Fatalf("SQL count %v err %v", r, err)
	}
	if n, err := run(t, d, countOf("dim", "")); err != nil || n.(int) != 7 {
		t.Fatalf("Dataset count %v err %v, want 7 on %d shards", n, err, c.NShards())
	}
}

// TestTableReadAfterFailover: a read after a node dies returns every row
// from the shards' new owners.
func TestTableReadAfterFailover(t *testing.T) {
	forEachClient(t, func(t *testing.T, socket bool) {
		c := newCluster(t, 3, socket)
		loadPoints(t, c, 900)
		if err := c.FailNode("B"); err != nil {
			t.Fatal(err)
		}
		if n, err := run(t, NewDispatcher(c), countOf("points", "")); err != nil || n.(int) != 900 {
			t.Fatalf("count after failover %v err %v", n, err)
		}
	})
}

// TestModelsMatchAcrossClients: a GLM and a k-means job train the same
// models on a loopback socket cluster as on the in-process one over the
// same data and shard count.
func TestModelsMatchAcrossClients(t *testing.T) {
	train := func(socket bool) (*GLMModel, *KMeansModel) {
		c := newCluster(t, 3, socket)
		loadPoints(t, c, 2000)
		res, err := run(t, NewDispatcher(c), func(ctx *Context) (interface{}, error) {
			glm, err := ctx.TrainGLM("points", "x1 >= 1", "label", []string{"x1", "x2"}, Gaussian)
			if err != nil {
				return nil, err
			}
			km, err := ctx.KMeans("points", "x1 >= 1", []string{"x1", "x2"}, 3)
			return [2]interface{}{glm, km}, err
		})
		if err != nil {
			t.Fatal(err)
		}
		models := res.([2]interface{})
		return models[0].(*GLMModel), models[1].(*KMeansModel)
	}
	localGLM, localKM := train(false)
	socketGLM, socketKM := train(true)
	if !reflect.DeepEqual(localGLM, socketGLM) {
		t.Errorf("GLM differs: in-process %+v, socket %+v", localGLM, socketGLM)
	}
	if !reflect.DeepEqual(localKM, socketKM) {
		t.Errorf("k-means differs: in-process %+v, socket %+v", localKM, socketKM)
	}
}

// fitRows is n rows of (x1, x2, y, cls, big): y a noisy linear law of x1
// and x2, cls a noisy (non-separable) class of them, big a BIGINT near
// 3·10⁹ whose squares overflow an integer sum.
func fitRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		x1 := float64(i%37) / 3.7
		x2 := float64((i*7)%23) / 2.3
		cls := 0.0
		if 0.8*x1-0.5*x2+2*math.Cos(float64(i)*1.3) > 1 {
			cls = 1
		}
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(x1), types.NewFloat(x2),
			types.NewFloat(1.5*x1 - 0.7*x2 + 3 + math.Sin(float64(i))), types.NewFloat(cls),
			types.NewInt(3e9 + int64(i%50)*1e7)}
	}
	return rows
}

var fitSchema = types.Schema{
	{Name: "id", Kind: types.KindInt},
	{Name: "x1", Kind: types.KindFloat, Nullable: true},
	{Name: "x2", Kind: types.KindFloat, Nullable: true},
	{Name: "y", Kind: types.KindFloat, Nullable: true},
	{Name: "cls", Kind: types.KindFloat, Nullable: true},
	{Name: "big", Kind: types.KindInt, Nullable: true},
}

// loadFit creates the fit table on a cluster, distributed by id.
func loadFit(t testing.TB, c *mpp.NetCluster, rows []types.Row) {
	t.Helper()
	if err := c.CreateTable("fit", fitSchema, mpp.TableOptions{DistributeBy: "id"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("fit", rows); err != nil {
		t.Fatal(err)
	}
}

// fits are the models the Spark entry points train on the fit table.
type fits struct {
	ols, big, logit *GLMModel
	km              *KMeansModel
}

func trainFits(t *testing.T, d *Dispatcher) fits {
	t.Helper()
	res, err := run(t, d, func(ctx *Context) (interface{}, error) {
		var f fits
		var err error
		if f.ols, err = ctx.TrainGLM("fit", "", "y", []string{"x1", "x2"}, Gaussian); err != nil {
			return nil, err
		}
		if f.big, err = ctx.TrainGLM("fit", "", "y", []string{"big"}, Gaussian); err != nil {
			return nil, err
		}
		if f.logit, err = ctx.TrainGLM("fit", "", "cls", []string{"x1", "x2"}, Binomial); err != nil {
			return nil, err
		}
		f.km, err = ctx.KMeans("fit", "", []string{"x1", "x2", "big"}, 3)
		return f, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.(fits)
}

// near reports got within tol of want, relative to |want| (at least 1).
func near(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// TestEntryPointsAgree: the Spark entry points on a 3-shard cluster, in
// process and over loopback, return the models the CALL procedures return
// on one engine over the same rows: OLS and R² to 1e-9, IRLS to 1e-6,
// k-means centers to 1e-9 with the same sizes.
func TestEntryPointsAgree(t *testing.T) {
	rows := fitRows(900)
	db := core.Open(core.Config{BufferPoolBytes: 8 << 20})
	defer db.Close()
	analytics.RegisterProcedures(db)
	s := db.NewSession()
	tbl, err := db.CreateTable("fit", fitSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	call := func(q string) *core.Result {
		r, err := s.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return r
	}
	// checkGLM compares a model with a procedure's TERM/COEFFICIENT rows.
	checkGLM := func(name string, m *GLMModel, r *core.Result, tol float64) {
		t.Helper()
		want := append([]float64{m.Intercept}, m.Weights...)
		if m.Family == Gaussian {
			want = append(want, m.RSquared)
		}
		if len(r.Rows) != len(want) {
			t.Fatalf("%s: %d terms, model %+v", name, len(r.Rows), m)
		}
		for i, row := range r.Rows {
			if !near(want[i], row[1].Float(), tol) {
				t.Errorf("%s %s: Spark %v, CALL %v", name, row[0].Str(), want[i], row[1].Float())
			}
		}
	}
	ols := call(`CALL LINEAR_REGRESSION('fit', 'y', 'x1,x2')`)
	big := call(`CALL LINEAR_REGRESSION('fit', 'y', 'big')`)
	logit := call(`CALL LOGISTIC_REGRESSION('fit', 'cls', 'x1,x2')`)
	km := call(`CALL KMEANS('fit', 'x1,x2,big', 3)`)
	forEachClient(t, func(t *testing.T, socket bool) {
		c := newCluster(t, 3, socket)
		loadFit(t, c, rows)
		f := trainFits(t, NewDispatcher(c))
		checkGLM("OLS", f.ols, ols, 1e-9)
		checkGLM("OLS on BIGINT", f.big, big, 1e-9)
		checkGLM("IRLS", f.logit, logit, 1e-6)
		for ci, row := range km.Rows {
			if f.km.Sizes[ci] != row[1].Int() {
				t.Errorf("cluster %d: Spark %d rows, CALL %v", ci, f.km.Sizes[ci], row[1])
			}
			for j, v := range f.km.Centers[ci] {
				if !near(v, row[2+j].Float(), 1e-9) {
					t.Errorf("center %d[%d]: Spark %v, CALL %v", ci, j, v, row[2+j].Float())
				}
			}
		}
	})
}

// TestFitsStayOnShards pins what a fit moves: every statement of a 20 000
// row fit on 4 shards takes the fast path and pulls one partial row per
// shard — per cluster for a k-means iteration — so OLS moves 8 rows, a
// logistic fit 4 per Newton step, and k-means at most 4·k per iteration
// plus its seeding, where reading the table moves 20 000.
func TestFitsStayOnShards(t *testing.T) {
	const n, k = 20000, 3
	forEachClient(t, func(t *testing.T, socket bool) {
		c := newCluster(t, 2, socket)
		loadFit(t, c, fitRows(n))
		d := NewDispatcher(c)
		fit := func(app App) (statements, pulled uint64, res interface{}) {
			before := c.Stats()
			res, err := run(t, d, app)
			if err != nil {
				t.Fatal(err)
			}
			after := c.Stats()
			if after.GatherPathQueries != before.GatherPathQueries || after.ShuffleJoins != before.ShuffleJoins {
				t.Fatalf("a fit statement left the fast path: %+v", after)
			}
			return after.FastPathQueries - before.FastPathQueries, after.PulledRows - before.PulledRows, res
		}
		shards := uint64(c.NShards())
		if st, pulled, _ := fit(func(ctx *Context) (interface{}, error) {
			return ctx.TrainGLM("fit", "", "y", []string{"x1", "x2"}, Gaussian)
		}); st != 2 || pulled != shards*st {
			t.Errorf("OLS: %d statements pulled %d rows, want 2 pulling %d", st, pulled, shards*2)
		}
		if st, pulled, _ := fit(func(ctx *Context) (interface{}, error) {
			return ctx.TrainGLM("fit", "", "cls", []string{"x1", "x2"}, Binomial)
		}); st == 0 || st > 25 || pulled != shards*st {
			t.Errorf("IRLS: %d statements pulled %d rows, want at most 25 pulling %d each", st, pulled, shards)
		}
		st, pulled, res := fit(func(ctx *Context) (interface{}, error) {
			return ctx.KMeans("fit", "", []string{"x1", "x2"}, k)
		})
		iters := uint64(res.(*KMeansModel).Iterations)
		if st != iters+1 || pulled > shards*(k*iters+1) {
			t.Errorf("k-means: %d statements for %d iterations pulled %d rows, want at most %d", st, iters, pulled, shards*(k*iters+1))
		}
		if _, pulled, _ := fit(countOf("fit", "")); pulled != n {
			t.Errorf("reading the table pulled %d rows, want %d", pulled, n)
		}
	})
}

// TestFitArgsAreNames: a fit's table, column and WHERE arguments cannot
// reach another table — a subquery, another table's column or text that
// would close the WHERE is refused before any statement runs — and an
// unknown or non-numeric column is an error.
func TestFitArgsAreNames(t *testing.T) {
	c, d := newDispatcher(t, 100)
	schema := types.Schema{{Name: "a", Kind: types.KindFloat}, {Name: "note", Kind: types.KindString, Nullable: true}}
	if err := c.CreateTable("secret", schema, mpp.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	glm := func(table, where, label string, features ...string) App {
		return func(ctx *Context) (interface{}, error) {
			return ctx.TrainGLM(table, where, label, features, Gaussian)
		}
	}
	km := func(table, where string, features ...string) App {
		return func(ctx *Context) (interface{}, error) { return ctx.KMeans(table, where, features, 2) }
	}
	before := c.Stats()
	for i, app := range []App{
		glm("points", "id IN (SELECT a FROM secret)", "label", "x1"),
		glm("points", "EXISTS (SELECT a FROM secret)", "label", "x1"),
		glm("points", "x1 < (SELECT MAX(a) FROM secret)", "label", "x1"),
		glm("points", "secret.a > 0", "label", "x1"),
		glm("points", "a > 0", "label", "x1"),
		glm("points", "1=1) UNION ALL SELECT a, a, a FROM secret --", "label", "x1"),
		glm("points", "1=1; DROP TABLE secret", "label", "x1"),
		glm("points, secret", "", "label", "x1"),
		glm("points", "", "label; DROP TABLE secret", "x1"),
		glm("points", "", "label", "x1 FROM secret --"),
		glm("points", "", "label", "secret.a"),
		glm("points", "", "label", "nope"),
		glm("points", "", "label"),
		glm("secret", "", "a", "note"),
		km("points", "id IN (SELECT a FROM secret)", "x1"),
		km("points", "", "x1, (SELECT MAX(a) FROM secret)"),
		km("points", ""),
	} {
		if res, err := run(t, d, app); err == nil {
			t.Errorf("fit %d answered %v", i, res)
		}
	}
	if after := c.Stats(); after.FastPathQueries != before.FastPathQueries || after.GatherPathQueries != before.GatherPathQueries {
		t.Fatalf("a refused fit ran statements: %+v, before %+v", after, before)
	}
	// Qualified names and a WHERE over the table's own columns fit.
	res, err := run(t, d, glm("points", "points.id >= 0 AND x2 IS NOT NULL", "points.label", "x1", "points.x2"))
	if err != nil {
		t.Fatal(err)
	}
	if m := res.(*GLMModel); !near(m.Weights[0], 3, 1e-9) || !near(m.Weights[1], -2, 1e-9) || !near(m.Intercept, 5, 1e-9) {
		t.Fatalf("qualified fit %+v", m)
	}
}
