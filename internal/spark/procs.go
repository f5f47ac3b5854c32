package spark

import (
	"fmt"

	"dashdb/internal/core"
	"dashdb/internal/types"
)

// RegisterProcedures installs the SQL stored-procedure interface of §II.D
// ("SQL Stored Procedure interfaces to submit or cancel Spark
// applications") on an engine:
//
//	CALL SPARK_SUBMIT('appName')          → one row: job id
//	CALL SPARK_CANCEL(jobID)              → OK
//	CALL SPARK_STATUS(jobID)              → one row: id, app, state, error
//	CALL SPARK_WAIT(jobID)                → blocks; one row: id, state
//
// The calling session's user keys the per-user cluster manager.
func RegisterProcedures(db *core.DB, d *Dispatcher) {
	db.RegisterProcedure("SPARK_SUBMIT", func(s *core.Session, args []types.Value) (*core.Result, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("spark: SPARK_SUBMIT expects (appName)")
		}
		id, err := d.Submit(s.User(), args[0].Str())
		if err != nil {
			return nil, err
		}
		return &core.Result{
			Columns: []string{"JOB_ID"},
			Rows:    []types.Row{{types.NewInt(id)}},
		}, nil
	})
	db.RegisterProcedure("SPARK_CANCEL", func(s *core.Session, args []types.Value) (*core.Result, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("spark: SPARK_CANCEL expects (jobID)")
		}
		id, _ := args[0].AsInt()
		if err := d.Cancel(s.User(), id); err != nil {
			return nil, err
		}
		return &core.Result{Message: "CANCELLED"}, nil
	})
	db.RegisterProcedure("SPARK_STATUS", func(s *core.Session, args []types.Value) (*core.Result, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("spark: SPARK_STATUS expects (jobID)")
		}
		id, _ := args[0].AsInt()
		job, err := d.Status(s.User(), id)
		if err != nil {
			return nil, err
		}
		return &core.Result{
			Columns: []string{"JOB_ID", "APP", "STATE", "ERROR"},
			Rows: []types.Row{{
				types.NewInt(job.ID),
				types.NewString(job.App),
				types.NewString(job.State.String()),
				types.NewString(job.Err),
			}},
		}, nil
	})
	db.RegisterProcedure("SPARK_WAIT", func(s *core.Session, args []types.Value) (*core.Result, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("spark: SPARK_WAIT expects (jobID)")
		}
		id, _ := args[0].AsInt()
		// Another user's job is not found, so it is not waited for either.
		if _, err := d.Status(s.User(), id); err != nil {
			return nil, err
		}
		if _, err := d.Wait(id); err != nil {
			return nil, err
		}
		job, err := d.Status(s.User(), id)
		if err != nil {
			return nil, err
		}
		return &core.Result{
			Columns: []string{"JOB_ID", "STATE"},
			Rows:    []types.Row{{types.NewInt(job.ID), types.NewString(job.State.String())}},
		}, nil
	})
}
