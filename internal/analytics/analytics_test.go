package analytics

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dashdb/internal/core"
)

func setupDB(t *testing.T) (*core.DB, *core.Session) {
	t.Helper()
	db := core.Open(core.Config{BufferPoolBytes: 8 << 20})
	RegisterProcedures(db)
	s := db.NewSession()
	if _, err := s.Exec(`CREATE TABLE pts (x1 DOUBLE, x2 DOUBLE, y DOUBLE, cls DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO pts VALUES ")
	for i := 0; i < 500; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		x1 := float64(i%50) / 5
		x2 := float64((i*3)%50) / 5
		y := 2*x1 - 3*x2 + 7 // exact linear law
		cls := 0.0
		if x1 > 5 {
			cls = 1
		}
		fmt.Fprintf(&b, "(%g, %g, %g, %g)", x1, x2, y, cls)
	}
	if _, err := s.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	return db, s
}

func coefficient(t *testing.T, r *core.Result, term string) float64 {
	t.Helper()
	for _, row := range r.Rows {
		if strings.EqualFold(row[0].Str(), term) {
			return row[1].Float()
		}
	}
	t.Fatalf("term %s missing in %v", term, r.Rows)
	return 0
}

func TestLinearRegressionExact(t *testing.T) {
	_, s := setupDB(t)
	r, err := s.Exec(`CALL LINEAR_REGRESSION('pts', 'y', 'x1,x2')`)
	if err != nil {
		t.Fatal(err)
	}
	// Normal equations recover the exact law y = 2*x1 - 3*x2 + 7.
	if math.Abs(coefficient(t, r, "X1")-2) > 1e-9 {
		t.Errorf("x1 coefficient %v", coefficient(t, r, "X1"))
	}
	if math.Abs(coefficient(t, r, "X2")+3) > 1e-9 {
		t.Errorf("x2 coefficient %v", coefficient(t, r, "X2"))
	}
	if math.Abs(coefficient(t, r, "(intercept)")-7) > 1e-9 {
		t.Errorf("intercept %v", coefficient(t, r, "(intercept)"))
	}
	if math.Abs(coefficient(t, r, "(r_squared)")-1) > 1e-9 {
		t.Errorf("R² %v", coefficient(t, r, "(r_squared)"))
	}
}

func TestLinearRegressionSingular(t *testing.T) {
	_, s := setupDB(t)
	// x1 regressed on x1 twice: collinear.
	if _, err := s.Exec(`CALL LINEAR_REGRESSION('pts', 'y', 'x1,x1')`); err == nil {
		t.Fatal("collinear features must fail")
	}
}

func TestLogisticRegressionSeparates(t *testing.T) {
	_, s := setupDB(t)
	r, err := s.Exec(`CALL LOGISTIC_REGRESSION('pts', 'cls', 'x1')`)
	if err != nil {
		t.Fatal(err)
	}
	w := coefficient(t, r, "X1")
	b := coefficient(t, r, "(intercept)")
	// cls = 1 iff x1 > 5: decision boundary near x1 = 5 and positive slope.
	if w <= 0 {
		t.Fatalf("slope %v must be positive", w)
	}
	boundary := -b / w
	if math.Abs(boundary-5) > 1 {
		t.Fatalf("decision boundary %v, want ~5", boundary)
	}
}

func TestKMeansProcedure(t *testing.T) {
	db := core.Open(core.Config{BufferPoolBytes: 8 << 20})
	RegisterProcedures(db)
	s := db.NewSession()
	s.Exec(`CREATE TABLE blobs (a DOUBLE, b DOUBLE)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO blobs VALUES ")
	for i := 0; i < 60; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		if i%2 == 0 {
			fmt.Fprintf(&sb, "(%d, 0)", i%5)
		} else {
			fmt.Fprintf(&sb, "(%d, 0)", 100+i%5)
		}
	}
	s.Exec(sb.String())
	r, err := s.Exec(`CALL KMEANS('blobs', 'a,b', 2)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("clusters %v", r.Rows)
	}
	c0, c1 := r.Rows[0][2].Float(), r.Rows[1][2].Float()
	if c0 > c1 {
		c0, c1 = c1, c0
	}
	if math.Abs(c0-2) > 1 || math.Abs(c1-102) > 1 {
		t.Fatalf("centers %v %v", c0, c1)
	}
	if r.Rows[0][1].Int()+r.Rows[1][1].Int() != 60 {
		t.Fatalf("sizes %v", r.Rows)
	}
}

func TestSummaryStats(t *testing.T) {
	_, s := setupDB(t)
	r, err := s.Exec(`CALL SUMMARY_STATS('pts', 'x1')`)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row[0].Int() != 500 {
		t.Fatalf("count %v", row[0])
	}
	if row[3].Float() != 0 || row[4].Float() != 9.8 {
		t.Fatalf("min/max %v %v", row[3], row[4])
	}
}

func TestProcedureArgErrors(t *testing.T) {
	_, s := setupDB(t)
	for _, call := range []string{
		`CALL LINEAR_REGRESSION('pts', 'y')`,
		`CALL KMEANS('pts', 'x1', 0)`,
		`CALL SUMMARY_STATS('pts')`,
		`CALL LINEAR_REGRESSION('ghost', 'y', 'x1')`,
	} {
		if _, err := s.Exec(call); err == nil {
			t.Errorf("%s must fail", call)
		}
	}
}

// TestProcedureArgsAreNames: a table or column argument that is not an
// identifier is refused before any statement runs, so a procedure cannot
// be steered into reading another table, while plain and qualified names
// answer as before.
func TestProcedureArgsAreNames(t *testing.T) {
	_, s := setupDB(t)
	if _, err := s.Exec(`CREATE TABLE secret (v DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO secret VALUES (1e6), (2e6)`); err != nil {
		t.Fatal(err)
	}
	for _, call := range []string{
		`CALL SUMMARY_STATS('pts WHERE 1=0 UNION ALL SELECT COUNT(v),AVG(v),0,MIN(v),MAX(v),0 FROM secret --', 'x1')`,
		`CALL SUMMARY_STATS('pts', 'x1) FROM secret --')`,
		`CALL SUMMARY_STATS('pts', '')`,
		`CALL LINEAR_REGRESSION('pts', 'y', 'x1, (SELECT MAX(v) FROM secret)')`,
		`CALL LINEAR_REGRESSION('pts, secret', 'y', 'x1')`,
		`CALL LOGISTIC_REGRESSION('pts', 'cls; DROP TABLE secret', 'x1')`,
		`CALL KMEANS('pts', 'x1,x2 FROM secret --', 2)`,
		`CALL KMEANS('pts', ' , ', 2)`,
	} {
		if r, err := s.Exec(call); err == nil {
			t.Errorf("%s answered %v", call, r.Rows)
		}
	}
	for _, call := range []string{`CALL SUMMARY_STATS('pts', 'x1')`, `CALL SUMMARY_STATS('pts', 'pts.x1')`} {
		r, err := s.Exec(call)
		if err != nil {
			t.Fatalf("%s: %v", call, err)
		}
		if row := r.Rows[0]; row[0].Int() != 500 || row[3].Float() != 0 || row[4].Float() != 9.8 {
			t.Fatalf("%s: %v", call, row)
		}
	}
	r, err := s.Exec(`CALL LINEAR_REGRESSION('pts', 'y', 'x1, x2')`)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coefficient(t, r, "X2")+3) > 1e-9 {
		t.Errorf("x2 coefficient %v", coefficient(t, r, "X2"))
	}
}
