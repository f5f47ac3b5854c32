package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"dashdb/internal/columnar"
	"dashdb/internal/exec"
	"dashdb/internal/mem"
	"dashdb/internal/sql"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// execStmt runs one statement, handing its rows to emit a batch at a time:
// a SELECT's batches as its plan produces them, any other statement's rows
// as one batch (vec.FromRows). The Result carries everything but the rows.
func (s *Session) execStmt(st sql.Statement, text string, emit func(*vec.Batch) error) (*Result, error) {
	release, err := s.db.wlm.Admit()
	if err != nil {
		return nil, err
	}
	defer release()
	// Statement-scoped snapshot isolation: every scan this statement
	// compiles pins one epoch per table via the shared set, released when
	// the statement finishes (results are fully materialized by then).
	// BEGIN blocks recurse through execStmt, so the outer set is saved and
	// restored — each inner statement gets its own epoch and observes the
	// writes of the statements before it.
	set := columnar.NewSnapshotSet()
	s.mu.Lock()
	saved := s.snaps
	s.snaps = set
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.snaps = saved
		s.mu.Unlock()
		set.ReleaseAll()
	}()
	res, err := s.execute(st, text, emit)
	if err != nil || res.Rows == nil {
		return res, err
	}
	rows := res.Rows
	res.Rows = nil
	if err := emit(vec.FromRows(nil, rows)); err != nil {
		return nil, err
	}
	return res, nil
}

// execute runs one statement of execStmt: a SELECT or VALUES streams to
// emit; any other statement returns its rows, if any, in the Result.
func (s *Session) execute(st sql.Statement, text string, emit func(*vec.Batch) error) (*Result, error) {
	switch stmt := st.(type) {
	case *sql.SelectStmt:
		return s.executeSelect(stmt, text, emit)
	case *sql.InsertStmt:
		return s.executeInsert(stmt)
	case *sql.UpdateStmt:
		return s.executeUpdate(stmt)
	case *sql.DeleteStmt:
		return s.executeDelete(stmt)
	case *sql.CreateTableStmt:
		return s.executeCreateTable(stmt)
	case *sql.DropStmt:
		return s.executeDrop(stmt)
	case *sql.TruncateStmt:
		return s.executeTruncate(stmt)
	case *sql.CreateViewStmt:
		if err := s.db.cat.CreateView(stmt.Name, stmt.SQL, s.dialect.String()); err != nil {
			return nil, err
		}
		return &Result{Message: "VIEW CREATED"}, nil
	case *sql.CreateSequenceStmt:
		if err := s.db.cat.CreateSequence(stmt.Name, stmt.Start, stmt.Incr); err != nil {
			return nil, err
		}
		return &Result{Message: "SEQUENCE CREATED"}, nil
	case *sql.CreateAliasStmt:
		if err := s.db.cat.CreateAlias(stmt.Name, stmt.Target); err != nil {
			return nil, err
		}
		return &Result{Message: "ALIAS CREATED"}, nil
	case *sql.CreateIndexStmt:
		if !stmt.Unique {
			return nil, fmt.Errorf(
				"core: CREATE INDEX %s rejected: the scan-centric runtime makes secondary indexes unnecessary; only uniqueness-enforcing indexes are allowed (use CREATE UNIQUE INDEX)", stmt.Name)
		}
		if _, ok := s.db.cat.Table(stmt.Table); !ok {
			return nil, fmt.Errorf("core: table %s does not exist", stmt.Table)
		}
		return &Result{Message: "UNIQUE INDEX ACCEPTED (uniqueness constraint recorded)"}, nil
	case *sql.SetStmt:
		return s.executeSet(stmt)
	case *sql.ExplainStmt:
		return s.executeExplain(stmt, text)
	case *sql.ValuesStmt:
		return s.executeValues(stmt, emit)
	case *sql.CallStmt:
		return s.executeCall(stmt)
	case *sql.BeginBlockStmt:
		// The block's result is its last statement's; the rows of the
		// statements before it are dropped as they arrive.
		last := &Result{Message: "OK"}
		for i, inner := range stmt.Body {
			out := discard
			if i == len(stmt.Body)-1 {
				out = emit
			}
			var err error
			if last, err = s.execStmt(inner, text, out); err != nil {
				return nil, err
			}
		}
		return last, nil
	}
	return nil, fmt.Errorf("core: unsupported statement %T", st)
}

func (s *Session) executeSelect(stmt *sql.SelectStmt, text string, emit func(*vec.Batch) error) (*Result, error) {
	op, err := s.compiler().CompileSelect(stmt)
	if err != nil {
		s.recordQueryError(text, err)
		return nil, err
	}
	// Weave telemetry through the compiled tree: every known operator gets
	// atomic row/batch/time counters and scans get per-worker sharded
	// stride counters.
	op = exec.Instrument(op)
	var n int64
	start := time.Now()
	err = exec.Stream(op, func(b *vec.Batch) error {
		n += int64(b.Rows())
		return emit(b)
	})
	elapsed := time.Since(start)
	rec := s.recordQueryPlan(text, op, start, elapsed, n, err, false)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: op.Schema().Names(), Stats: rec}, nil
}

// discard is the emit of a statement whose rows nobody reads.
func discard(b *vec.Batch) error {
	b.Release()
	return nil
}

// recordQueryPlan freezes the instrumented plan into a
// telemetry.QueryRecord, appends it to the engine's history ring, and
// returns it. Slow queries (elapsed >= the registry threshold) carry the
// full EXPLAIN ANALYZE plan text; forcePlan renders it unconditionally
// (the EXPLAIN ANALYZE statement itself).
func (s *Session) recordQueryPlan(text string, op exec.Operator, start time.Time, elapsed time.Duration, rows int64, execErr error, forcePlan bool) *telemetry.QueryRecord {
	reg := s.db.reg
	entries := collectPlan(op)
	rec := &telemetry.QueryRecord{
		ID:      reg.NextID(),
		SQL:     text,
		Start:   start,
		Elapsed: elapsed,
		Rows:    rows,
		Dop:     s.Parallelism(),
		Status:  "ok",
		Ops:     freezeOps(entries),
	}
	if execErr != nil {
		rec.Status = "error"
		rec.Err = execErr.Error()
	}
	if elapsed >= reg.SlowThreshold() {
		rec.Slow = true
	}
	if rec.Slow || forcePlan {
		rec.Plan = strings.Join(renderPlan(entries, true), "\n")
	}
	reg.Record(*rec)
	return rec
}

// recordQueryError appends a history entry for a query that never ran
// (compile/bind failure): no plan, no counters, just the error.
func (s *Session) recordQueryError(text string, err error) {
	reg := s.db.reg
	reg.Record(telemetry.QueryRecord{
		ID:     reg.NextID(),
		SQL:    text,
		Start:  time.Now(),
		Dop:    s.Parallelism(),
		Status: "error",
		Err:    err.Error(),
	})
}

func (s *Session) executeInsert(stmt *sql.InsertStmt) (*Result, error) {
	tbl, ok := s.db.cat.Table(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("core: table %s does not exist", stmt.Table)
	}
	c := s.compiler()
	var bs []*vec.Batch
	if stmt.Query != nil {
		op, err := c.CompileSelect(stmt.Query)
		if err != nil {
			return nil, err
		}
		if bs, err = exec.Collect(op); err != nil {
			return nil, err
		}
	}
	if len(stmt.Rows) > 0 {
		rows, err := c.EvalRows(stmt.Rows)
		if err != nil {
			return nil, err
		}
		bs = append(bs, vec.FromRows(nil, rows))
	}
	if err := stmt.Place(tbl.Schema(), bs); err != nil {
		return nil, err
	}
	n, err := tbl.Append(bs...)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: int64(n), Message: fmt.Sprintf("%d rows inserted", n)}, nil
}

// change runs an UPDATE or a DELETE on tbl as one columnar Change: the
// WHERE clause is compiled first, then, under the table's writer lock, the
// latest epoch is scanned with pushdown, the residual predicate narrows
// each batch, and the matches are deleted. set, when not nil, sees every
// scan batch that holds a match, the selection narrowed to the matches,
// and returns the batch of the rows that replace them; nothing is boxed.
func (s *Session) change(tbl *columnar.Table, where sql.Expr, set func(vb *vec.Batch) (*vec.Batch, error)) (int, error) {
	preds, residual, err := s.compiler().CompileTablePredicate(where, tbl.Schema())
	if err != nil {
		return 0, err
	}
	return tbl.Change(func(snap *columnar.Snapshot) (del []int64, add []*vec.Batch, err error) {
		scanErr := snap.Scan(preds, nil, 1, nil, func(_ int, b *columnar.Batch) bool {
			vb := vec.NewBatch(tbl.Schema(), b.VectorsEnc(nil, nil), b.Len())
			vb.Own()
			if residual != nil {
				var pv *vec.Vector
				if pv, err = residual.EvalVec(vb); err != nil {
					return false
				}
				vb.Sel = exec.SelTrue(pv, vb.Idx())
			}
			for _, i := range vb.Idx() {
				del = append(del, b.RowID(i))
			}
			if set != nil && vb.Rows() > 0 {
				var nb *vec.Batch
				nb, err = set(vb)
				add = append(add, nb)
			}
			vb.Release() // a no-op when set disowned it
			return err == nil
		})
		if err == nil {
			err = scanErr
		}
		return del, add, err
	})
}

func (s *Session) executeUpdate(stmt *sql.UpdateStmt) (*Result, error) {
	tbl, ok := s.db.cat.Table(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("core: table %s does not exist", stmt.Table)
	}
	schema := tbl.Schema()
	c := s.compiler()
	type setOp struct {
		ci int
		e  exec.Expr
	}
	var sets []setOp
	for _, sc := range stmt.Set {
		ci := schema.ColumnIndex(sc.Column)
		if ci < 0 {
			return nil, fmt.Errorf("core: column %s not in table %s", sc.Column, stmt.Table)
		}
		ce, err := c.CompileRowExpr(sc.Expr, schema)
		if err != nil {
			return nil, err
		}
		sets = append(sets, setOp{ci: ci, e: ce})
	}
	n, err := s.change(tbl, stmt.Where, func(vb *vec.Batch) (*vec.Batch, error) {
		// Every SET reads the old values (vb) and takes its column's place.
		// The new rows may hold vb's own lanes: disowned, not released.
		nb := vb
		for _, so := range sets {
			v, err := so.e.EvalVec(vb)
			if err != nil {
				return nil, err
			}
			nb = nb.WithCol(so.ci, v)
		}
		vb.Disown()
		return columnar.Conform(schema, nb)
	})
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: int64(n), Message: fmt.Sprintf("%d rows updated", n)}, nil
}

func (s *Session) executeDelete(stmt *sql.DeleteStmt) (*Result, error) {
	tbl, ok := s.db.cat.Table(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("core: table %s does not exist", stmt.Table)
	}
	n, err := s.change(tbl, stmt.Where, nil)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: int64(n), Message: fmt.Sprintf("%d rows deleted", n)}, nil
}

func (s *Session) executeCreateTable(stmt *sql.CreateTableStmt) (*Result, error) {
	if stmt.IfNotExists {
		if _, exists := s.db.cat.Table(stmt.Table); exists {
			return &Result{Message: "TABLE EXISTS"}, nil
		}
	}
	var schema types.Schema
	var initial []*vec.Batch
	if stmt.AsQuery != nil {
		op, err := s.compiler().CompileSelect(stmt.AsQuery)
		if err != nil {
			return nil, err
		}
		if initial, err = exec.Collect(op); err != nil {
			return nil, err
		}
		for ci, col := range op.Schema() {
			kind := col.Kind
			if kind == types.KindNull {
				kind = inferKind(initial, ci)
			}
			schema = append(schema, types.Column{Name: col.Name, Kind: kind, Nullable: true})
		}
	} else {
		for _, cd := range stmt.Columns {
			kind, err := sql.TypeKindFor(cd.Type)
			if err != nil {
				return nil, err
			}
			schema = append(schema, types.Column{Name: cd.Name, Kind: kind, Nullable: !cd.NotNull})
		}
	}
	t := columnar.NewTable(s.db.cat.NextTableID(), stmt.Table, schema, columnar.Config{
		Pool:  s.db.pool,
		Store: s.db.store,
		Dop:   s.db.Config().Parallelism,
	})
	if err := s.db.cat.CreateTable(t); err != nil {
		return nil, err
	}
	if _, err := t.Append(initial...); err != nil {
		return nil, err
	}
	return &Result{Message: "TABLE CREATED"}, nil
}

// inferKind is the kind of column ci's first non-NULL value in bs (a
// CTAS's output), VARCHAR when there is none.
func inferKind(bs []*vec.Batch, ci int) types.Kind {
	for _, b := range bs {
		v := b.Col(ci)
		for _, i := range b.Idx() {
			if !v.IsNull(i) {
				return v.Get(i).Kind()
			}
		}
	}
	return types.KindString
}

func (s *Session) executeDrop(stmt *sql.DropStmt) (*Result, error) {
	var err error
	switch stmt.Kind {
	case "TABLE":
		err = s.db.cat.DropTable(stmt.Name)
	case "VIEW":
		err = s.db.cat.DropView(stmt.Name)
	case "SEQUENCE":
		err = s.db.cat.DropSequence(stmt.Name)
	case "NICKNAME":
		err = s.db.cat.DropNickname(stmt.Name)
	}
	if err != nil {
		if stmt.IfExists {
			return &Result{Message: "OK"}, nil
		}
		return nil, err
	}
	return &Result{Message: stmt.Kind + " DROPPED"}, nil
}

func (s *Session) executeTruncate(stmt *sql.TruncateStmt) (*Result, error) {
	tbl, ok := s.db.cat.Table(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("core: table %s does not exist", stmt.Table)
	}
	if err := tbl.Truncate(); err != nil {
		return nil, err
	}
	return &Result{Message: "TABLE TRUNCATED"}, nil
}

func (s *Session) executeSet(stmt *sql.SetStmt) (*Result, error) {
	name := strings.ToUpper(stmt.Name)
	switch name {
	case "SQL_DIALECT", "SQL_COMPAT", "COMPATIBILITY_MODE":
		d, err := sql.ParseDialect(stmt.Value)
		if err != nil {
			return nil, err
		}
		s.dialect = d
		return &Result{Message: "DIALECT " + d.String()}, nil
	case "PARALLELISM", "DOP", "QUERY_PARALLELISM":
		v := strings.ToUpper(strings.TrimSpace(stmt.Value))
		if v == "DEFAULT" || v == "AUTO" || v == "0" {
			s.parallelism = 0
			return &Result{Message: fmt.Sprintf("PARALLELISM AUTO (%d)", s.Parallelism())}, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("core: SET %s expects a positive integer, AUTO or DEFAULT, got %q", name, stmt.Value)
		}
		s.parallelism = n
		return &Result{Message: fmt.Sprintf("PARALLELISM %d", s.Parallelism())}, nil
	case "SLOW_QUERY_THRESHOLD_MS":
		ms, err := strconv.Atoi(strings.TrimSpace(stmt.Value))
		if err != nil || ms < 0 {
			return nil, fmt.Errorf("core: SET %s expects a non-negative integer, got %q", name, stmt.Value)
		}
		s.db.reg.SetSlowThreshold(time.Duration(ms) * time.Millisecond)
		return &Result{Message: fmt.Sprintf("SLOW_QUERY_THRESHOLD_MS %d", ms)}, nil
	case "SORTHEAP", "HASHHEAP":
		// Per-session heap caps for the memory governor. AUTO/DEFAULT/0
		// restores the broker-wide budget; sizes accept K/M/G suffixes
		// (SET SORTHEAP 4MB forces external sorts on modest inputs).
		v := strings.ToUpper(strings.TrimSpace(stmt.Value))
		var limit int64
		if v != "DEFAULT" && v != "AUTO" && v != "0" {
			n, err := mem.ParseBytes(v)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("core: SET %s expects a byte size (e.g. 16MB), AUTO or DEFAULT, got %q", name, stmt.Value)
			}
			limit = n
		}
		if name == "SORTHEAP" {
			s.sortHeap = limit
		} else {
			s.hashHeap = limit
		}
		if limit == 0 {
			return &Result{Message: name + " AUTO"}, nil
		}
		return &Result{Message: fmt.Sprintf("%s %d", name, limit)}, nil
	case "JOIN_ORDER":
		// Join-ordering mode: GREEDY runs the planner's synopsis-driven
		// reordering and build-side selection, SYNTACTIC lowers FROM
		// clauses as written (the F-J ablation baseline).
		v := strings.ToUpper(strings.TrimSpace(stmt.Value))
		switch v {
		case "GREEDY", "SYNTACTIC":
			s.joinOrder = v
		case "DEFAULT", "AUTO":
			s.joinOrder, v = "", "GREEDY"
		default:
			return nil, fmt.Errorf("core: SET %s expects GREEDY, SYNTACTIC or DEFAULT, got %q", name, stmt.Value)
		}
		return &Result{Message: "JOIN_ORDER " + v}, nil
	}
	// Other session variables are accepted and ignored (config surface).
	return &Result{Message: "OK"}, nil
}

// executeValues streams a VALUES statement's rows to emit as one batch.
func (s *Session) executeValues(stmt *sql.ValuesStmt, emit func(*vec.Batch) error) (*Result, error) {
	rows, err := s.compiler().EvalRows(stmt.Rows)
	if err != nil {
		return nil, err
	}
	b := vec.FromRows(nil, rows)
	cols := make([]string, b.NumCols())
	for i := range cols {
		cols[i] = fmt.Sprintf("COL%d", i+1)
	}
	return &Result{Columns: cols}, emit(b)
}

func (s *Session) executeCall(stmt *sql.CallStmt) (*Result, error) {
	proc, ok := s.db.procedure(stmt.Proc)
	if !ok {
		return nil, fmt.Errorf("core: procedure %s does not exist", stmt.Proc)
	}
	args, err := s.compiler().EvalRow(stmt.Args)
	if err != nil {
		return nil, err
	}
	return proc(s, args)
}
