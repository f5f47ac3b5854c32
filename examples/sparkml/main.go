// Command sparkml demonstrates the integrated Spark runtime of §II.D:
// a cluster with one worker per shard, per-user cluster managers, a
// logistic regression and a k-means segmentation fitted by aggregate
// statements the shards run over their own rows, a shard read with
// predicate pushdown, and the SQL stored-procedure submission path.
package main

import (
	"fmt"
	"log"
	"math"

	"dashdb"
)

func main() {
	cl, err := dashdb.NewCluster([]dashdb.NodeSpec{
		{Name: "A", Cores: 4, MemBytes: 32 << 20},
		{Name: "B", Cores: 4, MemBytes: 32 << 20},
	}, 2)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// Risk dataset: late-payment probability grows with utilization and
	// falls with tenure, with noise, so no line separates the classes.
	must(cl.CreateTable("loans", dashdb.Schema{
		{Name: "id", Kind: dashdb.KindInt},
		{Name: "utilization", Kind: dashdb.KindFloat, Nullable: true},
		{Name: "tenure_years", Kind: dashdb.KindFloat, Nullable: true},
		{Name: "late", Kind: dashdb.KindFloat, Nullable: true},
	}, dashdb.TableOptions{DistributeBy: "id"}))

	var rows []dashdb.Row
	for i := 0; i < 20000; i++ {
		util := float64(i%100) / 100
		tenure := float64(i%20) / 2
		score := 4*util - 0.5*tenure - 1 + 1.5*math.Sin(float64(i)*0.37) // noise: classes overlap
		late := 0.0
		if score > 0 {
			late = 1
		}
		rows = append(rows, dashdb.Row{
			dashdb.NewInt(int64(i)), dashdb.NewFloat(util),
			dashdb.NewFloat(tenure), dashdb.NewFloat(late),
		})
	}
	must0(cl.Insert("loans", rows))

	d := cl.Spark()

	// Register the application, then submit it for user "riskteam".
	d.RegisterApp("lateRisk", func(ctx *dashdb.SparkContext) (interface{}, error) {
		// The fit is a few aggregate statements: each shard sums its own
		// rows, and only rows with known labels count.
		return ctx.TrainGLM("loans", "late IS NOT NULL", "late", []string{"utilization", "tenure_years"}, dashdb.Binomial)
	})

	fmt.Println("submitting Spark application 'lateRisk'...")
	id, err := d.Submit("riskteam", "lateRisk")
	if err != nil {
		log.Fatal(err)
	}
	res, err := d.Wait(id)
	if err != nil {
		log.Fatal(err)
	}
	m := res.(*dashdb.GLMModel)
	fmt.Printf("  fitted logistic model: weights=%.2f intercept=%.2f\n", m.Weights, m.Intercept)
	fmt.Printf("  P(late | util=0.9, tenure=1) = %.2f\n", m.Predict([]float64{0.9, 1}))
	fmt.Printf("  P(late | util=0.1, tenure=8) = %.2f\n", m.Predict([]float64{0.1, 8}))

	fmt.Printf("  rows the fit moved off the shards: %d of %d (partial sums only)\n", cl.Internal().Stats().PulledRows, len(rows))

	// Segment the book by utilization and tenure: k-means, one GROUP BY
	// on the nearest center per iteration, also summed where the rows are.
	km, err := d.Wait(d.SubmitFunc("riskteam", "segments", func(ctx *dashdb.SparkContext) (interface{}, error) {
		return ctx.KMeans("loans", "", []string{"utilization", "tenure_years"}, 3)
	}))
	if err != nil {
		log.Fatal(err)
	}
	seg := km.(*dashdb.KMeansModel)
	for c, center := range seg.Centers {
		fmt.Printf("  segment %d: %5d loans around utilization %.2f, tenure %.1f\n", c, seg.Sizes[c], center[0], center[1])
	}

	job, err := d.Status("riskteam", id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  job %d state: %s (runtime %v)\n", job.ID, job.State, job.Finished.Sub(job.Submitted).Round(1e6))

	// Per-user isolation: another user cannot see the job.
	if _, err := d.Status("intruder", id); err != nil {
		fmt.Println("  isolation: user 'intruder' cannot see riskteam's job ✔")
	}

	// The SQL stored-procedure interface (CALL SPARK_SUBMIT) on a shard
	// engine.
	db := cl.Internal().ShardEngines()[0]
	dashdb.RegisterSparkProcedures(db, d)
	sess := db.NewSession()
	sess.SetUser("riskteam")
	r, err := sess.Exec(`CALL SPARK_SUBMIT('lateRisk')`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  CALL SPARK_SUBMIT('lateRisk') -> job %s\n", r.Rows[0][0])
	if _, err := sess.Exec(fmt.Sprintf(`CALL SPARK_WAIT(%s)`, r.Rows[0][0])); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  CALL SPARK_WAIT completed ✔")

	// A Dataset read with a pushed-down WHERE moves only the rows it
	// admits.
	before := cl.Internal().Stats().PulledRows
	n, err := d.Wait(d.SubmitFunc("riskteam", "lateCount", func(ctx *dashdb.SparkContext) (interface{}, error) {
		ds, err := ctx.Table("loans", "late = 1")
		if err != nil {
			return nil, err
		}
		return [2]int{ds.Count(), ds.Partitions()}, nil
	}))
	if err != nil {
		log.Fatal(err)
	}
	late := n.([2]int)
	fmt.Printf("  late loans read through a Dataset: %d rows moved, %d in %d partitions\n", cl.Internal().Stats().PulledRows-before, late[0], late[1])
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func must0(err error) { must(err) }
