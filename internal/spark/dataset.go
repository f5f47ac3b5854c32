package spark

import (
	"fmt"
	"sync"

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
// columns.
func (c *Context) Table(table, where string, cols ...string) (*Dataset, error) {
	c.checkCancelled()
	results, err := c.cm.d.cluster.ReadShards(table, where, cols)
	if err != nil {
		return nil, err
	}
	parts := make([][]types.Row, len(results))
	for i, r := range results {
		parts[i] = r.Rows()
	}
	return &Dataset{ctx: c, partitions: parts}, nil
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

// Aggregate folds every partition with seqOp then merges partials with
// combOp (the treeAggregate shape MLlib uses for gradients).
func (d *Dataset) Aggregate(zero func() interface{}, seqOp func(acc interface{}, row types.Row) interface{}, combOp func(a, b interface{}) interface{}) interface{} {
	d.ctx.checkCancelled()
	partials := make([]interface{}, len(d.partitions))
	var wg sync.WaitGroup
	for i, p := range d.partitions {
		wg.Add(1)
		go func(i int, p []types.Row) {
			defer wg.Done()
			acc := zero()
			for _, r := range p {
				acc = seqOp(acc, r)
			}
			partials[i] = acc
		}(i, p)
	}
	wg.Wait()
	if len(partials) == 0 {
		return zero()
	}
	acc := partials[0]
	for _, p := range partials[1:] {
		acc = combOp(acc, p)
	}
	return acc
}

// AccTypeError reports an Aggregate contract violation: a seqOp or combOp
// returned an accumulator of the wrong dynamic type.
type AccTypeError struct {
	Want string
	Got  interface{}
}

func (e *AccTypeError) Error() string {
	return fmt.Sprintf("spark: aggregate accumulator is %T, want %s", e.Got, e.Want)
}

// AggregateTyped is Aggregate with a typed accumulator. It centralizes the
// interface{} boundary in one place with comma-ok conversions, so ML call
// sites carry no unchecked type assertions: a mismatched accumulator (a
// broken seqOp/combOp contract) surfaces as an *AccTypeError instead of a
// panic in the middle of a distributed job.
func AggregateTyped[T any](d *Dataset, zero func() T, seqOp func(T, types.Row) T, combOp func(T, T) T) (T, error) {
	res := d.Aggregate(
		func() interface{} { return zero() },
		func(acc interface{}, row types.Row) interface{} {
			a, ok := acc.(T)
			if !ok {
				return acc // preserve the bad value; reported after the fold
			}
			return seqOp(a, row)
		},
		func(x, y interface{}) interface{} {
			a, aok := x.(T)
			b, bok := y.(T)
			if !aok {
				return x
			}
			if !bok {
				return y
			}
			return combOp(a, b)
		},
	)
	out, ok := res.(T)
	if !ok {
		var want T
		return want, &AccTypeError{Want: fmt.Sprintf("%T", want), Got: res}
	}
	return out, nil
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

// Features extracts float feature vectors plus a label column for the ML
// algorithms; rows with NULL in any used column are skipped.
//
//dashdb:nolint deadcode F-H: the ML feature extraction Spark applications use, exercised by its tests
func (d *Dataset) Features(labelCol int, featureCols ...int) (X [][]float64, y []float64, err error) {
	d.ctx.checkCancelled()
	for _, p := range d.partitions {
		for _, r := range p {
			if labelCol >= len(r) {
				return nil, nil, fmt.Errorf("spark: label column %d out of range", labelCol)
			}
			lv, ok := r[labelCol].AsFloat()
			if !ok {
				continue
			}
			vec := make([]float64, len(featureCols))
			skip := false
			for i, fc := range featureCols {
				if fc >= len(r) {
					return nil, nil, fmt.Errorf("spark: feature column %d out of range", fc)
				}
				fv, ok := r[fc].AsFloat()
				if !ok {
					skip = true
					break
				}
				vec[i] = fv
			}
			if skip {
				continue
			}
			X = append(X, vec)
			y = append(y, lv)
		}
	}
	return X, y, nil
}
