package dashdb

import (
	"dashdb/internal/spark"
)

// Spark runtime surface, re-exported: the integrated analytics engine of
// §II.D. Obtain a Dispatcher from Cluster.Spark(); submit App functions;
// inside an App use the Context: Table reads a Dataset with pushdown
// (Count, Map, Filter, ReduceByKey), and TrainGLM and KMeans fit a table
// by aggregate statements the shards run over their own rows.
type (
	// SparkDispatcher routes applications to per-user cluster managers.
	SparkDispatcher = spark.Dispatcher
	// SparkContext is the per-application handle (SparkContext analogue).
	SparkContext = spark.Context
	// SparkApp is a submittable application.
	SparkApp = spark.App
	// Dataset is a partitioned row collection with a functional API.
	Dataset = spark.Dataset
	// SparkJob is a job's monitoring snapshot.
	SparkJob = spark.Job
	// GLMModel is a fitted generalized linear model.
	GLMModel = spark.GLMModel
	// GLMFamily selects a GLM's link: Gaussian or Binomial.
	GLMFamily = spark.GLMFamily
	// KMeansModel is a fitted k-means clustering.
	KMeansModel = spark.KMeansModel
)

// GLM families, re-exported.
const (
	// Gaussian selects linear regression.
	Gaussian = spark.Gaussian
	// Binomial selects logistic regression.
	Binomial = spark.Binomial
)

// RegisterSparkProcedures installs CALL SPARK_SUBMIT / SPARK_CANCEL /
// SPARK_STATUS / SPARK_WAIT on an embedded engine.
var RegisterSparkProcedures = spark.RegisterProcedures

// SparkRESTServer is the HTTP job submission/monitoring interface
// (§II.D's REST API); start one with NewSparkRESTServer.
type SparkRESTServer = spark.RESTServer

// NewSparkRESTServer starts the REST interface for a dispatcher.
var NewSparkRESTServer = spark.NewRESTServer
