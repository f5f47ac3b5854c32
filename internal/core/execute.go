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

func (s *Session) execStmt(st sql.Statement, text string) (*Result, error) {
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
	switch stmt := st.(type) {
	case *sql.SelectStmt:
		return s.executeSelect(stmt, text)
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
		return s.executeValues(stmt)
	case *sql.CallStmt:
		return s.executeCall(stmt)
	case *sql.BeginBlockStmt:
		var last *Result
		for _, inner := range stmt.Body {
			var err error
			last, err = s.execStmt(inner, text)
			if err != nil {
				return nil, err
			}
		}
		if last == nil {
			last = &Result{Message: "OK"}
		}
		return last, nil
	}
	return nil, fmt.Errorf("core: unsupported statement %T", st)
}

func (s *Session) executeSelect(stmt *sql.SelectStmt, text string) (*Result, error) {
	op, err := s.compiler().CompileSelect(stmt)
	if err != nil {
		s.recordQueryError(text, err)
		return nil, err
	}
	// Weave telemetry through the compiled tree: every known operator gets
	// atomic row/batch/time counters and scans get per-worker sharded
	// stride counters.
	op = exec.Instrument(op)
	start := time.Now()
	rows, err := exec.Drain(op)
	elapsed := time.Since(start)
	rec := s.recordQueryPlan(text, op, start, elapsed, int64(len(rows)), err, false)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: op.Schema().Names(), Rows: rows, Stats: rec}, nil
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

// evalConstExprs evaluates a list of expressions with no input row
// (VALUES clauses, CALL arguments).
func (s *Session) evalConstExprs(exprs []sql.Expr) (types.Row, error) {
	c := s.compiler()
	row := make(types.Row, len(exprs))
	for i, e := range exprs {
		v, err := c.EvalConst(e)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

func (s *Session) executeInsert(stmt *sql.InsertStmt) (*Result, error) {
	tbl, ok := s.db.cat.Table(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("core: table %s does not exist", stmt.Table)
	}
	schema := tbl.Schema()
	// Map the explicit column list (or the full schema) to ordinals.
	colIdx := make([]int, 0, len(schema))
	if len(stmt.Columns) == 0 {
		for i := range schema {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range stmt.Columns {
			ci := schema.ColumnIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("core: column %s not in table %s", name, stmt.Table)
			}
			colIdx = append(colIdx, ci)
		}
	}
	buildRow := func(vals types.Row) (types.Row, error) {
		if len(vals) != len(colIdx) {
			return nil, fmt.Errorf("core: INSERT has %d values for %d columns", len(vals), len(colIdx))
		}
		full := make(types.Row, len(schema))
		for i := range full {
			full[i] = types.NullOf(schema[i].Kind)
		}
		for i, ci := range colIdx {
			full[ci] = vals[i]
		}
		return full, nil
	}

	var rows []types.Row
	switch {
	case stmt.Query != nil:
		op, err := s.compiler().CompileSelect(stmt.Query)
		if err != nil {
			return nil, err
		}
		src, err := exec.Drain(op)
		if err != nil {
			return nil, err
		}
		for _, r := range src {
			full, err := buildRow(r)
			if err != nil {
				return nil, err
			}
			rows = append(rows, full)
		}
	default:
		for _, exprRow := range stmt.Rows {
			vals, err := s.evalConstExprs(exprRow)
			if err != nil {
				return nil, err
			}
			full, err := buildRow(vals)
			if err != nil {
				return nil, err
			}
			rows = append(rows, full)
		}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: int64(len(rows)), Message: fmt.Sprintf("%d rows inserted", len(rows))}, nil
}

// matchingRows scans tbl with pushdown and returns the ids of the rows the
// residual predicate keeps, in scan order. each, when set, sees every scan
// batch that holds a match as column vectors, the selection narrowed to the
// matches; nothing is boxed here.
func (s *Session) matchingRows(tbl *columnar.Table, where sql.Expr, each func(vb *vec.Batch) error) ([]int64, error) {
	preds, residual, err := s.compiler().CompileTablePredicate(where, tbl.Schema())
	if err != nil {
		return nil, err
	}
	var rids []int64
	var inner error
	scanErr := tbl.Scan(preds, func(b *columnar.Batch) bool {
		vb := vec.NewBatch(tbl.Schema(), b.VectorsEnc(nil, nil), b.Len())
		if residual != nil {
			var pv *vec.Vector
			if pv, inner = residual.EvalVec(vb); inner != nil {
				return false
			}
			vb.Sel = exec.SelTrue(pv, vb.Idx())
		}
		for _, i := range vb.Idx() {
			rids = append(rids, b.RowID(i))
		}
		if each != nil && vb.Rows() > 0 {
			inner = each(vb)
		}
		return inner == nil
	})
	if inner != nil {
		return nil, inner
	}
	return rids, scanErr
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
	var newRows []types.Row
	rids, err := s.matchingRows(tbl, stmt.Where, func(vb *vec.Batch) error {
		// Every SET expression reads the old values (the vectors), so the
		// boxed rows can take the new ones in place.
		first := len(newRows)
		newRows = vb.AppendRows(newRows)
		for _, so := range sets {
			v, err := so.e.EvalVec(vb)
			if err != nil {
				return err
			}
			for n, i := range vb.Idx() {
				newRows[first+n][so.ci] = v.Get(i)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl.DeleteRows(rids)
	if err := tbl.InsertBatch(newRows); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: int64(len(rids)), Message: fmt.Sprintf("%d rows updated", len(rids))}, nil
}

func (s *Session) executeDelete(stmt *sql.DeleteStmt) (*Result, error) {
	tbl, ok := s.db.cat.Table(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("core: table %s does not exist", stmt.Table)
	}
	rids, err := s.matchingRows(tbl, stmt.Where, nil)
	if err != nil {
		return nil, err
	}
	n := tbl.DeleteRows(rids)
	return &Result{RowsAffected: int64(n), Message: fmt.Sprintf("%d rows deleted", n)}, nil
}

func (s *Session) executeCreateTable(stmt *sql.CreateTableStmt) (*Result, error) {
	if stmt.IfNotExists {
		if _, exists := s.db.cat.Table(stmt.Table); exists {
			return &Result{Message: "TABLE EXISTS"}, nil
		}
	}
	var schema types.Schema
	var initial []types.Row
	if stmt.AsQuery != nil {
		op, err := s.compiler().CompileSelect(stmt.AsQuery)
		if err != nil {
			return nil, err
		}
		rows, err := exec.Drain(op)
		if err != nil {
			return nil, err
		}
		for _, col := range op.Schema() {
			kind := col.Kind
			if kind == types.KindNull {
				kind = inferKind(rows, op.Schema().ColumnIndex(col.Name))
			}
			schema = append(schema, types.Column{Name: col.Name, Kind: kind, Nullable: true})
		}
		initial = rows
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
	})
	if err := s.db.cat.CreateTable(t, stmt.Temp); err != nil {
		return nil, err
	}
	if len(initial) > 0 {
		if err := t.InsertBatch(initial); err != nil {
			return nil, err
		}
	}
	return &Result{Message: "TABLE CREATED"}, nil
}

// inferKind guesses a column kind from materialized data (CTAS outputs).
func inferKind(rows []types.Row, ci int) types.Kind {
	if ci < 0 {
		return types.KindString
	}
	for _, r := range rows {
		if ci < len(r) && !r[ci].IsNull() {
			return r[ci].Kind()
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
			s.joinOrder = ""
			v = "GREEDY"
			if s.db.cfg.DisableJoinReorder {
				v = "SYNTACTIC"
			}
		default:
			return nil, fmt.Errorf("core: SET %s expects GREEDY, SYNTACTIC or DEFAULT, got %q", name, stmt.Value)
		}
		return &Result{Message: "JOIN_ORDER " + v}, nil
	}
	// Other session variables are accepted and ignored (config surface).
	return &Result{Message: "OK"}, nil
}

func (s *Session) executeValues(stmt *sql.ValuesStmt) (*Result, error) {
	var rows []types.Row
	width := 0
	for _, er := range stmt.Rows {
		row, err := s.evalConstExprs(er)
		if err != nil {
			return nil, err
		}
		if width == 0 {
			width = len(row)
		} else if len(row) != width {
			return nil, fmt.Errorf("core: VALUES rows have differing arity")
		}
		rows = append(rows, row)
	}
	cols := make([]string, width)
	for i := range cols {
		cols[i] = fmt.Sprintf("COL%d", i+1)
	}
	return &Result{Columns: cols, Rows: rows}, nil
}

func (s *Session) executeCall(stmt *sql.CallStmt) (*Result, error) {
	proc, ok := s.db.procedure(stmt.Proc)
	if !ok {
		return nil, fmt.Errorf("core: procedure %s does not exist", stmt.Proc)
	}
	args, err := s.evalConstExprs(stmt.Args)
	if err != nil {
		return nil, err
	}
	return proc(s, args)
}
