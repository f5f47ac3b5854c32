// Package spark is a from-scratch reproduction of dashDB Local's
// integrated Apache Spark runtime (paper §II.D, Figures 6–7): a Spark
// Dispatcher co-resident with the database, one Cluster Manager per user
// (isolation: "different users could not see what other users are
// doing"), and one Worker per database shard, whose partition is that
// shard's rows, filtered on the shard by an optional pushed-down WHERE
// ("an additional where clause could be pushed to the database to
// transfer only the data really needed"). A shard's rows reach Spark
// through the cluster's own shard read (mpp.NetCluster.ReadShards), on the
// in-process cluster and the socket one alike.
//
// Context.TrainGLM and Context.KMeans fit a table without reading it: they
// run internal/analytics' fits — the engine's own CALL procedures — over
// the cluster's SELECT path, where each statement is a partial aggregate
// the shards compute next to their rows, so only partial sums move.
//
// It is not Apache Spark: it is the closest synthetic equivalent that
// exercises the same architecture — partitioned datasets with a
// functional API, job submission/monitoring, and GLM and k-means fits —
// per the substitution rules in DESIGN.md.
package spark

import (
	"fmt"
	"sync"
	"time"

	"dashdb/internal/mpp"
)

// JobState tracks a submitted application's lifecycle.
type JobState uint8

const (
	// JobQueued means the job awaits a worker slot.
	JobQueued JobState = iota
	// JobRunning means the application is executing.
	JobRunning
	// JobDone means the application finished successfully.
	JobDone
	// JobFailed means the application returned an error.
	JobFailed
	// JobCancelled means the job was cancelled by the user.
	JobCancelled
)

// String names the state.
func (s JobState) String() string {
	return [...]string{"QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED"}[s]
}

// Job is one submitted application, as visible through the monitoring
// interface (§II.D: "REST API interface to run, cancel, or monitor Spark
// applications").
type Job struct {
	ID        int64
	User      string
	App       string
	State     JobState
	Submitted time.Time
	Finished  time.Time
	Err       string
	cancel    chan struct{}
	done      chan struct{}
	result    interface{}
}

// App is a Spark application: a function over a Context.
type App func(ctx *Context) (interface{}, error)

// Dispatcher is the main controller for every Spark request (Figure 6).
// It creates one ClusterManager per user so users are isolated from each
// other, and dispatches submitted applications onto that user's managers.
type Dispatcher struct {
	cluster  *mpp.NetCluster
	mu       sync.Mutex
	managers map[string]*ClusterManager
	apps     map[string]App
	jobs     map[int64]*Job
	nextID   int64
}

// NewDispatcher starts the integrated analytics runtime over an MPP
// cluster, in-process or over sockets, with an empty manager map.
func NewDispatcher(c *mpp.NetCluster) *Dispatcher {
	return &Dispatcher{
		cluster:  c,
		managers: make(map[string]*ClusterManager),
		apps:     make(map[string]App),
		jobs:     make(map[int64]*Job),
	}
}

// RegisterApp publishes an application under a name, making it callable
// through spark_submit and the SQL stored procedure interface.
func (d *Dispatcher) RegisterApp(name string, app App) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.apps[name] = app
}

// managerFor returns (creating if needed) the user's cluster manager:
// "for each user Apache Spark starts an own Spark Cluster Manager".
func (d *Dispatcher) managerFor(user string) *ClusterManager {
	d.mu.Lock()
	defer d.mu.Unlock()
	cm, ok := d.managers[user]
	if !ok {
		cm = newClusterManager(user, d)
		d.managers[user] = cm
	}
	return cm
}

// Submit runs a registered application asynchronously for the user and
// returns its job ID (the REST submit).
func (d *Dispatcher) Submit(user, appName string) (int64, error) {
	d.mu.Lock()
	app, ok := d.apps[appName]
	d.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("spark: application %s is not registered", appName)
	}
	return d.submitFunc(user, appName, app), nil
}

// SubmitFunc runs an ad-hoc application (the notebook / one-click
// deployment path).
func (d *Dispatcher) SubmitFunc(user, name string, app App) int64 {
	return d.submitFunc(user, name, app)
}

func (d *Dispatcher) submitFunc(user, name string, app App) int64 {
	d.mu.Lock()
	d.nextID++
	job := &Job{
		ID:        d.nextID,
		User:      user,
		App:       name,
		State:     JobQueued,
		Submitted: time.Now(),
		cancel:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	d.jobs[job.ID] = job
	d.mu.Unlock()

	cm := d.managerFor(user)
	go func() {
		defer close(job.done)
		d.setState(job, JobRunning, "")
		ctx := &Context{cm: cm, job: job}
		result, err := func() (res interface{}, err error) {
			defer func() {
				if r := recover(); r != nil {
					if c, ok := r.(cancelledPanic); ok {
						err = fmt.Errorf("spark: job %d cancelled", c.id)
						return
					}
					err = fmt.Errorf("spark: application panic: %v", r)
				}
			}()
			return app(ctx)
		}()
		if err != nil {
			d.setState(job, JobFailed, err.Error())
			return
		}
		d.mu.Lock()
		job.result = result
		d.mu.Unlock()
		d.setState(job, JobDone, "")
	}()
	return job.ID
}

// setState moves a job on, unless it has ended: a cancelled job stays
// cancelled whatever its application returns later.
func (d *Dispatcher) setState(job *Job, st JobState, errMsg string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.setStateLocked(job, st, errMsg)
}

// setStateLocked is setState under d.mu, and the one place a job ends:
// an end state records errMsg and the finish time. It reports whether
// the job moved.
func (d *Dispatcher) setStateLocked(job *Job, st JobState, errMsg string) bool {
	if job.State >= JobDone {
		return false
	}
	job.State, job.Err = st, errMsg
	if st >= JobDone {
		job.Finished = time.Now()
	}
	return true
}

// Wait blocks until the job completes and returns its result.
func (d *Dispatcher) Wait(id int64) (interface{}, error) {
	d.mu.Lock()
	job, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("spark: job %d not found", id)
	}
	<-job.done
	d.mu.Lock()
	defer d.mu.Unlock()
	if job.State == JobFailed || job.State == JobCancelled {
		return nil, fmt.Errorf("spark: job %d %s: %s", id, job.State, job.Err)
	}
	return job.result, nil
}

// Cancel cancels the user's job (best effort: the application stops at
// its next dataset materialization point). Like Status, it finds only
// the user's own jobs.
func (d *Dispatcher) Cancel(user string, id int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	job, err := d.ownedLocked(user, id)
	if err != nil {
		return err
	}
	if d.setStateLocked(job, JobCancelled, "cancelled by user") {
		close(job.cancel)
	}
	return nil
}

// Status returns a snapshot of the job (the monitor interface). The user
// argument enforces isolation: users see only their own jobs.
func (d *Dispatcher) Status(user string, id int64) (Job, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	job, err := d.ownedLocked(user, id)
	if err != nil {
		return Job{}, err
	}
	return *job, nil
}

// ownedLocked finds the user's job id; another user's job is not found.
func (d *Dispatcher) ownedLocked(user string, id int64) (*Job, error) {
	job, ok := d.jobs[id]
	if !ok || job.User != user {
		return nil, fmt.Errorf("spark: job %d not found for user %s", id, user)
	}
	return job, nil
}

// Jobs lists the user's jobs (isolation as in Status).
func (d *Dispatcher) Jobs(user string) []Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []Job
	for _, j := range d.jobs {
		if j.User == user {
			out = append(out, *j)
		}
	}
	return out
}

// cancelledPanic unwinds an application when its job is cancelled.
type cancelledPanic struct{ id int64 }

// ClusterManager owns the per-user worker set: one worker per database
// shard.
type ClusterManager struct {
	user    string
	d       *Dispatcher
	workers []*Worker
}

func newClusterManager(user string, d *Dispatcher) *ClusterManager {
	cm := &ClusterManager{user: user, d: d}
	for i := range d.cluster.NShards() {
		cm.workers = append(cm.workers, &Worker{Shard: i})
	}
	return cm
}

// Worker executes partition tasks over one shard's rows.
type Worker struct {
	Shard int
}
