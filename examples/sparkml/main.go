// Command sparkml demonstrates the integrated Spark runtime of §II.D:
// a cluster with shard-collocated workers, per-user cluster managers,
// socket data transfer with predicate pushdown, and an MLlib-style GLM
// trained in-database, plus the SQL stored-procedure submission path.
package main

import (
	"fmt"
	"log"

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
	// falls with tenure.
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
		score := 4*util - 0.5*tenure - 1
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

	d, err := cl.Spark()
	if err != nil {
		log.Fatal(err)
	}

	// Register the application, then submit it for user "riskteam".
	d.RegisterApp("lateRisk", func(ctx *dashdb.SparkContext) (interface{}, error) {
		// Pushdown: only rows with known labels cross the socket.
		ds, err := ctx.Table("loans", "late IS NOT NULL")
		if err != nil {
			return nil, err
		}
		fmt.Printf("  dataset: %d rows in %d shard-collocated partitions\n", ds.Count(), ds.Partitions())
		return ds.TrainGLM(3, []int{1, 2}, dashdb.GLMConfig{
			Family: dashdb.Binomial, Iterations: 300, LearnRate: 0.5,
		})
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

	rowsSent, bytesSent := d.TransferStats()
	fmt.Printf("  socket transfer: %d rows, %dKB (pushdown-filtered at the shards)\n",
		rowsSent, bytesSent>>10)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func must0(err error) { must(err) }
