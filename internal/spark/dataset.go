package spark

import (
	"sync"

	"dashdb/internal/analytics"
	"dashdb/internal/core"
	"dashdb/internal/mpp"
	"dashdb/internal/sql"
	"dashdb/internal/types"
)

// Context is the handle an application uses to reach its user's cluster:
// the analogue of SparkContext/SparkSession.
type Context struct {
	cm  *ClusterManager
	job *Job
}

// checkCancelled aborts the application when its job was cancelled.
func (c *Context) checkCancelled() {
	select {
	case <-c.job.cancel:
		panic(cancelledPanic{id: c.job.ID})
	default:
	}
}

// Dataset is a partitioned collection of rows with a functional API — the
// RDD/DataFrame stand-in. A table's Dataset has one partition per shard
// that holds its rows.
type Dataset struct {
	ctx        *Context
	partitions [][]types.Row
}

// Table loads a table as a Dataset, each shard's rows one partition (a
// replicated table's one copy, one partition). where is an optional SQL
// predicate over the table's columns pushed down to each shard ("to
// transfer only the data really needed"); cols optionally projects
// columns. The rows are boxed here, once: a Dataset is rows.
func (c *Context) Table(table, where string, cols ...string) (*Dataset, error) {
	c.checkCancelled()
	results, err := c.cm.d.cluster.ReadShards(table, where, cols)
	if err != nil {
		return nil, err
	}
	parts := make([][]types.Row, len(results))
	for i, r := range results {
		for _, b := range r.Batches {
			parts[i] = b.AppendRows(parts[i])
		}
	}
	return &Dataset{ctx: c, partitions: parts}, nil
}

// engine runs a context's fits on its cluster, the job's cancellation
// checked before each statement.
type engine struct {
	*mpp.NetCluster
	ctx *Context
}

func (e engine) Select(sel *sql.SelectStmt) (*core.Result, error) {
	e.ctx.checkCancelled()
	return e.NetCluster.Select(sel)
}

// The models, one per algorithm, are the analytics library's.
type (
	// GLMFamily selects the generalized linear model link.
	GLMFamily = analytics.GLMFamily
	// GLMModel is a fitted generalized linear model.
	GLMModel = analytics.GLMModel
	// KMeansModel is a fitted k-means clustering.
	KMeansModel = analytics.KMeansModel
)

// GLM families.
const (
	// Gaussian is ordinary least-squares linear regression.
	Gaussian = analytics.Gaussian
	// Binomial is logistic regression.
	Binomial = analytics.Binomial
)

// TrainGLM fits a generalized linear model of label on features over the
// rows of table that where (optional SQL over its columns) admits
// (analytics.TrainGLM). Every statement of the fit is a partial aggregate
// each shard computes over its own rows, so no row leaves its shard: only
// each shard's sums do.
func (c *Context) TrainGLM(table, where, label string, features []string, family GLMFamily) (*GLMModel, error) {
	return analytics.TrainGLM(engine{c.cm.d.cluster, c}, table, where, label, features, family)
}

// KMeans clusters the feature columns of the rows of table that where
// admits into k groups (analytics.KMeans), each iteration a GROUP BY the
// shards aggregate where the rows are.
func (c *Context) KMeans(table, where string, features []string, k int) (*KMeansModel, error) {
	return analytics.KMeans(engine{c.cm.d.cluster, c}, table, where, features, k)
}

// Parallelize distributes in-memory rows across the workers.
//
//dashdb:nolint deadcode F-H: the Dataset API Spark applications use, exercised by its tests
func (c *Context) Parallelize(rows []types.Row) *Dataset {
	n := len(c.cm.workers)
	if n == 0 {
		n = 1
	}
	parts := make([][]types.Row, n)
	for i, r := range rows {
		parts[i%n] = append(parts[i%n], r)
	}
	return &Dataset{ctx: c, partitions: parts}
}

// Partitions returns the partition count.
func (d *Dataset) Partitions() int { return len(d.partitions) }

// Count returns the total number of rows.
func (d *Dataset) Count() int {
	d.ctx.checkCancelled()
	n := 0
	for _, p := range d.partitions {
		n += len(p)
	}
	return n
}

// Map applies fn to every row, partition-parallel.
//
//dashdb:nolint deadcode F-H: the Dataset API Spark applications use, exercised by its tests
func (d *Dataset) Map(fn func(types.Row) types.Row) *Dataset {
	return d.transform(func(part []types.Row) []types.Row {
		out := make([]types.Row, len(part))
		for i, r := range part {
			out[i] = fn(r)
		}
		return out
	})
}

// Filter keeps rows where fn returns true, partition-parallel.
//
//dashdb:nolint deadcode F-H: the Dataset API Spark applications use, exercised by its tests
func (d *Dataset) Filter(fn func(types.Row) bool) *Dataset {
	return d.transform(func(part []types.Row) []types.Row {
		var out []types.Row
		for _, r := range part {
			if fn(r) {
				out = append(out, r)
			}
		}
		return out
	})
}

// transform runs a per-partition function concurrently (one goroutine per
// partition simulates one task per worker).
func (d *Dataset) transform(fn func([]types.Row) []types.Row) *Dataset {
	d.ctx.checkCancelled()
	parts := make([][]types.Row, len(d.partitions))
	var wg sync.WaitGroup
	for i, p := range d.partitions {
		wg.Add(1)
		go func(i int, p []types.Row) {
			defer wg.Done()
			parts[i] = fn(p)
		}(i, p)
	}
	wg.Wait()
	return &Dataset{ctx: d.ctx, partitions: parts}
}

// ReduceByKey groups rows by the key column ordinal and reduces the value
// column ordinal with fn (a minimal shuffle).
//
//dashdb:nolint deadcode F-H: the Dataset API Spark applications use, exercised by its tests
func (d *Dataset) ReduceByKey(keyCol, valCol int, fn func(a, b types.Value) types.Value) map[types.Value]types.Value {
	d.ctx.checkCancelled()
	out := make(map[types.Value]types.Value)
	for _, p := range d.partitions {
		for _, r := range p {
			k, v := r[keyCol], r[valCol]
			if prev, ok := out[k]; ok {
				out[k] = fn(prev, v)
			} else {
				out[k] = v
			}
		}
	}
	return out
}
