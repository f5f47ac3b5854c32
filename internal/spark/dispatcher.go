package spark

import (
	"fmt"
	"sync"
	"time"

	"dashdb/internal/core"
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
	mu       sync.Mutex
	managers map[string]*ClusterManager
	apps     map[string]App
	jobs     map[int64]*Job
	nextID   int64
	servers  []*DataServer // one per shard, shared by all users
}

// NewDispatcher starts the integrated analytics runtime over an MPP
// cluster's shard engines, in shard order: one data server per shard
// (collocated access, so the engines must live in this process) and an
// empty manager map.
func NewDispatcher(shards []*core.DB) (*Dispatcher, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("spark: no in-process shard engines to collocate with")
	}
	d := &Dispatcher{
		managers: make(map[string]*ClusterManager),
		apps:     make(map[string]App),
		jobs:     make(map[int64]*Job),
	}
	for _, db := range shards {
		srv, err := NewDataServer(db)
		if err != nil {
			d.Close()
			return nil, err
		}
		d.servers = append(d.servers, srv)
	}
	return d, nil
}

// Close stops every data server.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.servers {
		s.Close()
	}
}

// TransferStats sums the socket traffic of all shard data servers — the
// measurement behind the pushdown experiment.
func (d *Dispatcher) TransferStats() (rows, bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.servers {
		rows += s.RowsSent()
		bytes += s.BytesSent()
	}
	return rows, bytes
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

// Managers returns the number of live per-user cluster managers.
func (d *Dispatcher) Managers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.managers)
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
		select {
		case <-job.cancel:
			d.setState(job, JobCancelled, "cancelled by user")
			return
		default:
		}
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

func (d *Dispatcher) setState(job *Job, st JobState, errMsg string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if job.State == JobCancelled {
		return
	}
	job.State = st
	job.Err = errMsg
	if st == JobDone || st == JobFailed || st == JobCancelled {
		job.Finished = time.Now()
	}
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

// Cancel requests job cancellation (best effort: checked at dataset
// materialization points).
func (d *Dispatcher) Cancel(id int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	job, ok := d.jobs[id]
	if !ok {
		return fmt.Errorf("spark: job %d not found", id)
	}
	if job.State == JobQueued || job.State == JobRunning {
		job.State = JobCancelled
		close(job.cancel)
	}
	return nil
}

// Status returns a snapshot of the job (the monitor interface). The user
// argument enforces isolation: users see only their own jobs.
func (d *Dispatcher) Status(user string, id int64) (Job, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	job, ok := d.jobs[id]
	if !ok || job.User != user {
		return Job{}, fmt.Errorf("spark: job %d not found for user %s", id, user)
	}
	return *job, nil
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
// shard, each bound to that shard's collocated data server.
type ClusterManager struct {
	user    string
	d       *Dispatcher
	workers []*Worker
}

func newClusterManager(user string, d *Dispatcher) *ClusterManager {
	cm := &ClusterManager{user: user, d: d}
	for i, srv := range d.servers {
		cm.workers = append(cm.workers, &Worker{Shard: i, DataAddr: srv.Addr()})
	}
	return cm
}

// Workers returns the manager's worker count (== shard count).
func (cm *ClusterManager) Workers() int { return len(cm.workers) }

// Worker executes partition tasks against one shard's data server.
type Worker struct {
	Shard    int
	DataAddr string
}
