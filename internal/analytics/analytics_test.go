package analytics

import (
	"fmt"
	"math"
	"slices"
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

// fitData is n rows of (x1, x2, y, cls, big): y a noisy linear law of x1
// and x2, cls a noisy (non-separable) class of them, big a BIGINT near
// 3·10⁹ whose squares overflow an integer sum.
func fitData(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		x1 := float64(i%37) / 3.7
		x2 := float64((i*7)%23) / 2.3
		y := 1.5*x1 - 0.7*x2 + 3 + math.Sin(float64(i))
		cls := 0.0
		if 0.8*x1-0.5*x2+2*math.Cos(float64(i)*1.3) > 1 {
			cls = 1
		}
		rows[i] = []float64{x1, x2, y, cls, 3e9 + float64(i%50)*1e7}
	}
	return rows
}

// loadFitData creates fit(x1, x2, y, cls DOUBLE, big BIGINT) holding rows.
func loadFitData(t *testing.T, s *core.Session, rows [][]float64) {
	t.Helper()
	if _, err := s.Exec(`CREATE TABLE fit (x1 DOUBLE, x2 DOUBLE, y DOUBLE, cls DOUBLE, big BIGINT)`); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO fit VALUES ")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%v, %v, %v, %v, %d)", r[0], r[1], r[2], r[3], int64(r[4]))
	}
	if _, err := s.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
}

// column returns column c of rows.
func column(rows [][]float64, c int) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r[c]
	}
	return out
}

// design returns the rows' columns cs as feature vectors.
func design(rows [][]float64, cs ...int) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		for _, c := range cs {
			out[i] = append(out[i], r[c])
		}
	}
	return out
}

// refNormal is the weighted normal equations of z = (1, x): Σ w·z·zᵀ and
// Σ r·z, summed in row order.
func refNormal(X [][]float64, w, r func(i int) float64) ([][]float64, []float64) {
	p := len(X[0]) + 1
	a, b := make([][]float64, p), make([]float64, p)
	for i := range a {
		a[i] = make([]float64, p)
	}
	for i, x := range X {
		z := append([]float64{1}, x...)
		for j := range z {
			for k := range z {
				a[j][k] += w(i) * z[j] * z[k]
			}
			b[j] += r(i) * z[j]
		}
	}
	return a, b
}

// refOLS is ordinary least squares by the normal equations, with R².
func refOLS(t *testing.T, X [][]float64, y []float64) (beta []float64, r2 float64) {
	a, b := refNormal(X, func(int) float64 { return 1 }, func(i int) float64 { return y[i] })
	beta, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, v := range y {
		mean += v / float64(len(y))
	}
	var res, tot float64
	for i, x := range X {
		pred := beta[0]
		for j, v := range x {
			pred += beta[j+1] * v
		}
		res += (y[i] - pred) * (y[i] - pred)
		tot += (y[i] - mean) * (y[i] - mean)
	}
	return beta, 1 - res/tot
}

// refIRLS is logistic regression by Newton's method from β = 0, run to
// convergence.
func refIRLS(t *testing.T, X [][]float64, y []float64) []float64 {
	beta := make([]float64, len(X[0])+1)
	prob := func(i int) float64 {
		eta := beta[0]
		for j, v := range X[i] {
			eta += beta[j+1] * v
		}
		return 1 / (1 + math.Exp(-eta))
	}
	for range 100 {
		a, g := refNormal(X, func(i int) float64 { p := prob(i); return p * (1 - p) }, func(i int) float64 { return y[i] - prob(i) })
		step, err := solve(a, g)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0.0
		for j := range beta {
			beta[j] += step[j]
			moved = math.Max(moved, math.Abs(step[j]))
		}
		if moved < 1e-12 {
			return beta
		}
	}
	t.Fatal("the reference IRLS did not converge")
	return nil
}

// refLloyd is Lloyd's algorithm from the evenly spaced seeding: centers
// move to their rows' means until none moves.
func refLloyd(X [][]float64, k int) (centers [][]float64, sizes []int64) {
	lo, hi := slices.Clone(X[0]), slices.Clone(X[0])
	for _, x := range X {
		for j, v := range x {
			lo[j], hi[j] = math.Min(lo[j], v), math.Max(hi[j], v)
		}
	}
	centers = make([][]float64, k)
	for c := range centers {
		for j := range lo {
			centers[c] = append(centers[c], lo[j]+float64(2*c+1)/float64(2*k)*(hi[j]-lo[j]))
		}
	}
	for range 50 {
		sums, sizes := make([][]float64, k), make([]int64, k)
		for c := range sums {
			sums[c] = make([]float64, len(lo))
		}
		for _, x := range X {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				d := 0.0
				for j, v := range x {
					d += float64((v - ctr[j]) * (v - ctr[j]))
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			sizes[best]++
			for j, v := range x {
				sums[best][j] += v
			}
		}
		moved := false
		for c := range centers {
			for j := range centers[c] {
				if sizes[c] > 0 {
					v := sums[c][j] / float64(sizes[c])
					moved = moved || v != centers[c][j]
					centers[c][j] = v
				}
			}
		}
		if !moved {
			return centers, sizes
		}
	}
	return centers, sizes
}

// near reports got within tol of want, relative to |want| (at least 1).
func near(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// TestProceduresMatchReferences: the CALL procedures return what plain
// Go computes by the same algorithms over the same rows — OLS by the
// normal equations and R² to 1e-9, IRLS to 1e-6, and k-means centers to
// 1e-9 with the same sizes — including a BIGINT feature whose squares
// would overflow an integer sum.
func TestProceduresMatchReferences(t *testing.T) {
	db := core.Open(core.Config{BufferPoolBytes: 8 << 20})
	RegisterProcedures(db)
	s := db.NewSession()
	rows := fitData(600)
	loadFitData(t, s, rows)

	for _, features := range [][]int{{0, 1}, {4}} {
		names := map[int]string{0: "X1", 1: "X2", 4: "BIG"}
		var cols []string
		for _, f := range features {
			cols = append(cols, names[f])
		}
		r, err := s.Exec(fmt.Sprintf(`CALL LINEAR_REGRESSION('fit', 'y', '%s')`, strings.Join(cols, ",")))
		if err != nil {
			t.Fatal(err)
		}
		beta, r2 := refOLS(t, design(rows, features...), column(rows, 2))
		for i, term := range append([]string{"(intercept)"}, cols...) {
			if got := coefficient(t, r, term); !near(got, beta[i], 1e-9) {
				t.Errorf("OLS %s = %v, reference %v", term, got, beta[i])
			}
		}
		if got := coefficient(t, r, "(r_squared)"); !near(got, r2, 1e-9) {
			t.Errorf("R² %v, reference %v", got, r2)
		}
	}

	r, err := s.Exec(`CALL LOGISTIC_REGRESSION('fit', 'cls', 'x1,x2')`)
	if err != nil {
		t.Fatal(err)
	}
	beta := refIRLS(t, design(rows, 0, 1), column(rows, 3))
	for i, term := range []string{"(intercept)", "X1", "X2"} {
		if got := coefficient(t, r, term); !near(got, beta[i], 1e-6) {
			t.Errorf("IRLS %s = %v, reference %v", term, got, beta[i])
		}
	}

	r, err = s.Exec(`CALL KMEANS('fit', 'x1,x2,big', 3)`)
	if err != nil {
		t.Fatal(err)
	}
	centers, sizes := refLloyd(design(rows, 0, 1, 4), 3)
	for c, row := range r.Rows {
		if row[1].Int() != sizes[c] {
			t.Errorf("cluster %d has %v rows, reference %d", c, row[1], sizes[c])
		}
		for j, want := range centers[c] {
			if got := row[2+j].Float(); !near(got, want, 1e-9) {
				t.Errorf("center %d[%d] = %v, reference %v", c, j, got, want)
			}
		}
	}
}

// TestNonNumericColumnRefused: a fit over a column that is not a number
// is an error, not a fit over the rows whose text happens to parse.
func TestNonNumericColumnRefused(t *testing.T) {
	_, s := setupDB(t)
	if _, err := s.Exec(`CREATE TABLE named (x DOUBLE, y DOUBLE, tag VARCHAR(10))`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO named VALUES (1, 2, '3'), (2, 4, '5'), (3, 6, 'x')`); err != nil {
		t.Fatal(err)
	}
	for _, call := range []string{
		`CALL LINEAR_REGRESSION('named', 'y', 'x,tag')`,
		`CALL LOGISTIC_REGRESSION('named', 'tag', 'x')`,
		`CALL KMEANS('named', 'tag', 2)`,
	} {
		if _, err := s.Exec(call); err == nil || !strings.Contains(err.Error(), "not numeric") {
			t.Errorf("%s: err %v, want not numeric", call, err)
		}
	}
}
