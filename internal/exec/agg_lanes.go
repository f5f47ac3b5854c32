package exec

// State lanes of the group table: every aggregate keeps its running state in
// columns indexed by group id, sized by what the aggregate needs (COUNT is
// one int64 a group), and is updated a batch at a time by a kernel that
// walks the batch's group-id vector next to the argument's typed payload.
// Arguments that arrive boxed (Any and row-backed vectors, constants, kinds a
// family has no payload loop for) go through one boxed-read kernel per family
// into the same lanes. Every lane merges exactly — another table's group, or
// a spilled group read back into a lane of the spilled block's groups, folds
// in with merge — so a spilled or worker-local partial is just an early
// partial.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"dashdb/internal/bitpack"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// lane is one aggregate's state for every group of a table.
type lane interface {
	width() int64 // bytes per group of capacity, as charged
	grow(n int)   // room for groups 0..n-1
	// update folds the argument values at the batch positions sel lists
	// (nil: the dense range) into the groups gids names, entry for entry.
	update(gids []uint32, a, b *vec.Vector, sel []int, sc *laneScratch) error
	merge(g uint32, o lane, og uint32) // fold o's group og into g; may take o's buffers
	clear(g uint32)
	// spill returns groups gs' state as typed columns, the kinds spill(nil)
	// has; load overwrites groups 0..n-1 from such columns of n rows.
	spill(gs []uint32) []*vec.Vector
	load(cols []*vec.Vector) error
	result(n int) (*vec.Vector, error) // output column for groups 0..n-1
}

// newLanes builds the lanes of an aggregate list; args are the first batch's
// argument vectors (nil without one), which type the MIN/MAX lanes.
func newLanes(specs []AggSpec, args []*vec.Vector) []lane {
	lanes := make([]lane, len(specs))
	for i, spec := range specs {
		var arg *vec.Vector
		if args != nil {
			arg = args[i]
		}
		lanes[i] = newLane(spec, arg)
	}
	return lanes
}

func newLane(spec AggSpec, arg *vec.Vector) lane {
	switch spec.Func {
	case AggCountStar, AggCount:
		return &countLane{}
	case AggCountDistinct:
		return &distinctLane{}
	case AggSum, AggAvg:
		return &sumLane{avg: spec.Func == AggAvg}
	case AggMin, AggMax:
		l := &minmaxLane{max: spec.Func == AggMax}
		if arg != nil && !arg.Const && (arg.I64 != nil || arg.F64 != nil) {
			l.kind = arg.Kind
		}
		return l
	case AggMedian, AggPercentileCont, AggPercentileDisc:
		return &listLane{spec: spec}
	}
	return &momentLane{fn: spec.Func}
}

// laneScratch holds the conversion buffers of one table's kernels.
type laneScratch struct{ fa, fb []float64 }

// ints, floats and flags are lane state of groups gs as a column of a
// spilled block: BIGINT, DOUBLE and BOOLEAN.
func ints[T int64 | uint64](xs []T, gs []uint32) *vec.Vector {
	v := vec.New(types.KindInt, len(gs))
	for r, g := range gs {
		v.I64[r] = int64(xs[g])
	}
	return v
}

func floats(xs []float64, gs []uint32) *vec.Vector {
	v := vec.New(types.KindFloat, len(gs))
	for r, g := range gs {
		v.F64[r] = xs[g]
	}
	return v
}

func flags(b bitset, gs []uint32) *vec.Vector {
	v := vec.New(types.KindBool, len(gs))
	for r, g := range gs {
		v.I64[r] = int64(btoi(b.get(g)))
	}
	return v
}

var errBadRun = errors.New("exec: malformed group-by spill block")

// bitset is one bit per group id.
type bitset []uint64

//dashdb:hotpath
func (b bitset) get(g uint32) bool { return b[g>>6]>>(g&63)&1 != 0 }

//dashdb:hotpath
func (b bitset) set(g uint32) { b[g>>6] |= 1 << (g & 63) }

func (b bitset) unset(g uint32)     { b[g>>6] &^= 1 << (g & 63) }
func (b bitset) grown(n int) bitset { return grown(b, (n+63)/64) }

func grown[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	out := make([]T, n)
	copy(out, s)
	return out
}

// typedVec reports whether v's NULLs are exactly its bitmap's: a payload or
// code vector, not a boxed, row-backed or constant one.
func typedVec(v *vec.Vector) bool {
	return !v.Const && (v.I64 != nil || v.F64 != nil || v.Str != nil || v.Codes != nil)
}

// at is the batch position of live row j: sel[j], or j itself under the nil
// selection that means the dense range.
//
//dashdb:hotpath
func at(sel []int, j int) int {
	if sel != nil {
		return sel[j]
	}
	return j
}

// floatsOf returns v's values at the live positions as a float64 payload
// indexed by batch position, with the bitmap of its NULLs: a DOUBLE vector's
// own, a BIGINT vector's converted into buf, anything else read value by
// value — the one boxed-read kernel of the families that compute in float64.
func floatsOf(v *vec.Vector, n int, sel []int, buf *[]float64) ([]float64, *bitpack.Bitmap, error) {
	if !v.Const && v.F64 != nil {
		return v.F64, v.Nulls, nil
	}
	size := v.Len()
	if v.Const { // one value stands for every position of the batch
		size = span(sel, n)
	}
	*buf = grown(*buf, size)
	if !v.Const && v.I64 != nil && v.Kind == types.KindInt {
		intsToFloats(*buf, v.I64, n, sel)
		return *buf, v.Nulls, nil
	}
	nulls := bitpack.NewBitmap(size)
	return *buf, nulls, floatsBoxed(*buf, nulls, v, n, sel)
}

// span is one past the largest batch position among the n live rows.
func span(sel []int, n int) int {
	if sel == nil {
		return n
	}
	end := 0
	for _, i := range sel[:n] {
		end = max(end, i+1)
	}
	return end
}

// floatsBoxed fails on a non-numeric value.
//
//dashdb:hotpath
func floatsBoxed(dst []float64, nulls *bitpack.Bitmap, v *vec.Vector, n int, sel []int) error {
	for j := 0; j < n; j++ {
		i := at(sel, j)
		val := v.Get(i)
		if x, ok := val.AsFloat(); ok {
			dst[i] = x
		} else if nulls.Set(i); !val.IsNull() {
			return errNonNumeric(val)
		}
	}
	return nil
}

//dashdb:hotpath
func intsToFloats(dst []float64, vals []int64, n int, sel []int) {
	for j := 0; j < n; j++ {
		i := at(sel, j)
		dst[i] = float64(vals[i])
	}
}

//dashdb:coldpath
func errNonNumeric(v types.Value) error {
	return fmt.Errorf("exec: non-numeric value %v in aggregate", v)
}

// --- COUNT(*) / COUNT(x): one int64 a group.

type countLane struct{ cnt []int64 }

func (l *countLane) width() int64 { return 8 }
func (l *countLane) grow(n int)   { l.cnt = grown(l.cnt, n) }

func (l *countLane) update(gids []uint32, a, _ *vec.Vector, sel []int, _ *laneScratch) error {
	switch {
	case a == nil:
		countRows(gids, nil, sel, l.cnt)
	case typedVec(a):
		countRows(gids, a.Nulls, sel, l.cnt)
	default:
		countBoxed(gids, a, sel, l.cnt)
	}
	return nil
}

//dashdb:hotpath
func countRows(gids []uint32, nulls *bitpack.Bitmap, sel []int, cnt []int64) {
	if nulls == nil {
		for _, g := range gids {
			cnt[g]++
		}
		return
	}
	for j, g := range gids {
		if i := at(sel, j); !nulls.Get(i) {
			cnt[g]++
		}
	}
}

// countBoxed is COUNT's boxed-read kernel.
//
//dashdb:hotpath
func countBoxed(gids []uint32, a *vec.Vector, sel []int, cnt []int64) {
	for j, g := range gids {
		if i := at(sel, j); !a.IsNull(i) {
			cnt[g]++
		}
	}
}

func (l *countLane) merge(g uint32, o lane, og uint32) {
	if o, ok := o.(*countLane); ok {
		l.cnt[g] += o.cnt[og]
	}
}
func (l *countLane) clear(g uint32)                  { l.cnt[g] = 0 }
func (l *countLane) spill(gs []uint32) []*vec.Vector { return []*vec.Vector{ints(l.cnt, gs)} }
func (l *countLane) load(cols []*vec.Vector) error   { copy(l.cnt, cols[0].I64); return nil }
func (l *countLane) result(n int) (*vec.Vector, error) {
	out := vec.New(types.KindInt, n)
	copy(out.I64, l.cnt)
	return out, nil
}

// --- SUM / AVG: the non-NULL count, the exact total of the BIGINT inputs as
// a 128-bit two's-complement pair (so partials merge associatively, only the
// final total has to fit int64, and AVG over integers is the same at every
// dop), the float total of every other input, and a saw-a-DOUBLE bit.

type sumLane struct {
	avg bool
	cnt []int64
	lo  []uint64
	hi  []int64
	f   []float64
	flt bitset
}

func (l *sumLane) width() int64 { return 33 }
func (l *sumLane) grow(n int) {
	l.cnt, l.lo, l.hi, l.f, l.flt = grown(l.cnt, n), grown(l.lo, n), grown(l.hi, n), grown(l.f, n), l.flt.grown(n)
}

func (l *sumLane) update(gids []uint32, a, _ *vec.Vector, sel []int, sc *laneScratch) error {
	switch {
	case a.Const:
	case a.I64 != nil && a.Kind == types.KindInt:
		sumI64(gids, a.I64, a.Nulls, sel, l)
		return nil
	case a.F64 != nil:
		sumF64(gids, a.F64, a.Nulls, sel, l)
		return nil
	}
	return sumBoxed(gids, a, sel, l)
}

//dashdb:hotpath
func (l *sumLane) addInt(g uint32, v int64) {
	var c uint64
	l.lo[g], c = bits.Add64(l.lo[g], uint64(v), 0)
	l.hi[g] += v>>63 + int64(c)
	l.cnt[g]++
}

//dashdb:hotpath
func sumI64(gids []uint32, vals []int64, nulls *bitpack.Bitmap, sel []int, l *sumLane) {
	for j, g := range gids {
		if i := at(sel, j); nulls == nil || !nulls.Get(i) {
			l.addInt(g, vals[i])
		}
	}
}

//dashdb:hotpath
func sumF64(gids []uint32, vals []float64, nulls *bitpack.Bitmap, sel []int, l *sumLane) {
	for j, g := range gids {
		if i := at(sel, j); nulls == nil || !nulls.Get(i) {
			l.f[g] += vals[i]
			l.cnt[g]++
			l.flt.set(g)
		}
	}
}

// sumBoxed is SUM/AVG's boxed-read kernel. Kinds that are neither BIGINT nor
// DOUBLE (dates, numeric strings) count toward the float total only, which a
// SUM that saw no DOUBLE does not report.
//
//dashdb:hotpath
func sumBoxed(gids []uint32, a *vec.Vector, sel []int, l *sumLane) error {
	for j, g := range gids {
		i := at(sel, j)
		v := a.Get(i)
		switch {
		case v.IsNull():
		case v.Kind() == types.KindInt:
			l.addInt(g, v.Int())
		default:
			x, ok := v.AsFloat()
			if !ok {
				return errNonNumeric(v)
			}
			l.f[g] += x
			l.cnt[g]++
			if v.Kind() == types.KindFloat {
				l.flt.set(g)
			}
		}
	}
	return nil
}

func (l *sumLane) merge(g uint32, o lane, og uint32) {
	o2, ok := o.(*sumLane)
	if !ok {
		return
	}
	var c uint64
	l.lo[g], c = bits.Add64(l.lo[g], o2.lo[og], 0)
	l.hi[g] += o2.hi[og] + int64(c)
	l.f[g] += o2.f[og]
	l.cnt[g] += o2.cnt[og]
	if o2.flt.get(og) {
		l.flt.set(g)
	}
}

func (l *sumLane) spill(gs []uint32) []*vec.Vector {
	return []*vec.Vector{ints(l.cnt, gs), ints(l.lo, gs), ints(l.hi, gs), floats(l.f, gs), flags(l.flt, gs)}
}

func (l *sumLane) load(cols []*vec.Vector) error {
	copy(l.cnt, cols[0].I64)
	copy(l.hi, cols[2].I64)
	copy(l.f, cols[3].F64)
	for g, flt := range cols[4].I64 {
		l.lo[g] = uint64(cols[1].I64[g])
		if l.flt.unset(uint32(g)); flt != 0 {
			l.flt.set(uint32(g))
		}
	}
	return nil
}

func (l *sumLane) clear(g uint32) {
	l.cnt[g], l.lo[g], l.hi[g], l.f[g] = 0, 0, 0, 0
	l.flt.unset(g)
}

// total is group g's sum as a float: the float lane plus the integer total.
func (l *sumLane) total(g uint32) float64 {
	if l.hi[g] == int64(l.lo[g])>>63 {
		return l.f[g] + float64(int64(l.lo[g]))
	}
	return l.f[g] + float64(l.hi[g])*(1<<64) + float64(l.lo[g])
}

// result: AVG is DOUBLE. SUM is BIGINT where no group saw a DOUBLE, DOUBLE
// where every group did, boxed when groups differ; an integer total outside
// int64 is the statement's error.
func (l *sumLane) result(n int) (*vec.Vector, error) {
	kind := types.KindFloat
	if !l.avg {
		ints, floats := false, false
		for g := uint32(0); int(g) < n; g++ {
			switch {
			case l.cnt[g] == 0:
			case l.flt.get(g):
				floats = true
			case l.hi[g] != int64(l.lo[g])>>63:
				return nil, fmt.Errorf("exec: integer overflow in SUM")
			default:
				ints = true
			}
		}
		switch {
		case ints && floats:
			kind = types.KindNull
		case !floats:
			kind = types.KindInt
		}
	}
	out := vec.New(kind, n)
	for g := uint32(0); int(g) < n; g++ {
		switch {
		case l.cnt[g] == 0:
			out.SetNull(int(g))
		case l.avg:
			out.F64[g] = l.total(g) / float64(l.cnt[g])
		case l.flt.get(g):
			out.Set(int(g), types.NewFloat(l.total(g)))
		default:
			out.Set(int(g), types.NewInt(int64(l.lo[g])))
		}
	}
	return out, nil
}

// --- MIN / MAX: a typed lane (the int64 payload of an integer-family kind,
// or float64) plus a seen bit while every value has the kind the first
// argument vector had; a boxed lane for strings and mixed kinds. A value of
// another kind boxes the lane in place.

type minmaxLane struct {
	max  bool
	kind types.Kind // kind of every held value; KindNull = boxed
	i64  []int64
	f64  []float64
	box  []types.Value
	seen bitset
}

func (l *minmaxLane) width() int64 { return kindWidth[l.kind] }

func (l *minmaxLane) grow(n int) {
	switch l.kind {
	case types.KindNull:
		l.box = grown(l.box, n)
	case types.KindFloat:
		l.f64 = grown(l.f64, n)
	default:
		l.i64 = grown(l.i64, n)
	}
	l.seen = l.seen.grown(n)
}

func (l *minmaxLane) update(gids []uint32, a, _ *vec.Vector, sel []int, sc *laneScratch) error {
	switch {
	case a.Const || a.Kind != l.kind:
		minmaxBoxed(gids, a, sel, l)
	case a.I64 != nil:
		minmaxI64(gids, a.I64, a.Nulls, sel, l)
	case a.F64 != nil:
		minmaxF64(gids, a.F64, a.Nulls, sel, l)
	default:
		minmaxBoxed(gids, a, sel, l)
	}
	return nil
}

//dashdb:hotpath
func minmaxI64(gids []uint32, vals []int64, nulls *bitpack.Bitmap, sel []int, l *minmaxLane) {
	for j, g := range gids {
		i := at(sel, j)
		if nulls != nil && nulls.Get(i) {
			continue
		}
		if v, cur := vals[i], l.i64[g]; !l.seen.get(g) || (l.max && v > cur) || (!l.max && v < cur) {
			l.i64[g] = v
			l.seen.set(g)
		}
	}
}

// lessF64 is types.Compare's float order: NaN above everything.
//
//dashdb:hotpath
func lessF64(a, b float64) bool { return a < b || (b != b && a == a) }

//dashdb:hotpath
func minmaxF64(gids []uint32, vals []float64, nulls *bitpack.Bitmap, sel []int, l *minmaxLane) {
	for j, g := range gids {
		i := at(sel, j)
		if nulls != nil && nulls.Get(i) {
			continue
		}
		if v, cur := vals[i], l.f64[g]; !l.seen.get(g) || (l.max && lessF64(cur, v)) || (!l.max && lessF64(v, cur)) {
			l.f64[g] = v
			l.seen.set(g)
		}
	}
}

// minmaxBoxed is MIN/MAX's boxed-read kernel.
//
//dashdb:hotpath
func minmaxBoxed(gids []uint32, a *vec.Vector, sel []int, l *minmaxLane) {
	for j, g := range gids {
		if v := a.Get(at(sel, j)); !v.IsNull() {
			l.put(g, v)
		}
	}
}

// put offers one boxed value to group g.
func (l *minmaxLane) put(g uint32, v types.Value) {
	if l.kind != types.KindNull && v.Kind() != l.kind {
		l.box = make([]types.Value, len(l.seen)*64)
		for h := range l.box {
			l.box[h], _ = l.get(uint32(h))
		}
		l.kind, l.i64, l.f64 = types.KindNull, nil, nil
	}
	cur, seen := l.get(g)
	if c := types.Compare(v, cur); seen && (c == 0 || (c > 0) != l.max) {
		return
	}
	switch l.kind {
	case types.KindNull:
		l.box[g] = v
	case types.KindFloat:
		l.f64[g] = v.Float()
	default:
		l.i64[g] = v.Int()
	}
	l.seen.set(g)
}

// get boxes group g's held value.
func (l *minmaxLane) get(g uint32) (types.Value, bool) {
	if int(g>>6) >= len(l.seen) || !l.seen.get(g) {
		return types.Null, false
	}
	switch l.kind {
	case types.KindNull:
		return l.box[g], true
	case types.KindFloat:
		return types.NewFloat(l.f64[g]), true
	}
	return valueOf(l.kind, uint64(l.i64[g])), true
}

func (l *minmaxLane) merge(g uint32, o lane, og uint32) {
	if o, ok := o.(*minmaxLane); ok {
		if v, seen := o.get(og); seen {
			l.put(g, v)
		}
	}
}
func (l *minmaxLane) spill(gs []uint32) []*vec.Vector {
	v := vec.New(l.kind, len(gs))
	for r, g := range gs {
		x, _ := l.get(g)
		v.Set(r, x)
	}
	return []*vec.Vector{v}
}

func (l *minmaxLane) load(cols []*vec.Vector) error {
	for g := range uint32(cols[0].Len()) {
		if l.clear(g); !cols[0].IsNull(int(g)) {
			l.put(g, cols[0].Get(int(g)))
		}
	}
	return nil
}

func (l *minmaxLane) clear(g uint32) {
	l.seen.unset(g)
	if l.kind == types.KindNull {
		l.box[g] = types.Null
	}
}

func (l *minmaxLane) result(n int) (*vec.Vector, error) {
	out := vec.New(l.kind, n)
	for g := 0; g < n; g++ {
		v, _ := l.get(uint32(g))
		out.Set(g, v)
	}
	return out, nil
}

// --- STDDEV / VARIANCE / COVARIANCE: (n, mean x, mean y, co-moment C)
// updated Welford-style and merged with Chan's pairwise formula, so a large
// common offset never cancels. Variance is the covariance of x with itself.

type moment struct{ n, mx, my, c float64 }

//dashdb:hotpath
func (m *moment) add(x, y float64) {
	m.n++
	dx := x - m.mx
	m.mx += dx / m.n
	m.my += (y - m.my) / m.n
	m.c += dx * (y - m.my)
}

type momentLane struct {
	fn AggFunc
	m  []moment
}

func (l *momentLane) covar() bool { return l.fn == AggCovarPop || l.fn == AggCovarSamp }

func (l *momentLane) width() int64 { return 32 }
func (l *momentLane) grow(n int)   { l.m = grown(l.m, n) }

func (l *momentLane) update(gids []uint32, a, b *vec.Vector, sel []int, sc *laneScratch) error {
	xs, xn, err := floatsOf(a, len(gids), sel, &sc.fa)
	ys, yn := xs, xn
	if err == nil && l.covar() {
		ys, yn, err = floatsOf(b, len(gids), sel, &sc.fb)
	}
	if err == nil {
		momentF64(gids, xs, ys, xn, yn, sel, l.m)
	}
	return err
}

//dashdb:hotpath
func momentF64(gids []uint32, xs, ys []float64, xn, yn *bitpack.Bitmap, sel []int, m []moment) {
	for j, g := range gids {
		if i := at(sel, j); (xn == nil || !xn.Get(i)) && (yn == nil || !yn.Get(i)) {
			m[g].add(xs[i], ys[i])
		}
	}
}

func (l *momentLane) merge(g uint32, o lane, og uint32) {
	o2, ok := o.(*momentLane)
	if !ok || o2.m[og].n == 0 {
		return
	}
	a, b := &l.m[g], o2.m[og]
	n := a.n + b.n
	dx, dy := b.mx-a.mx, b.my-a.my
	a.c += b.c + dx*dy*a.n*b.n/n
	a.mx += dx * b.n / n
	a.my += dy * b.n / n
	a.n = n
}
func (l *momentLane) clear(g uint32) { l.m[g] = moment{} }
func (l *momentLane) spill(gs []uint32) []*vec.Vector {
	cols := make([]*vec.Vector, 4)
	for c := range cols {
		cols[c] = vec.New(types.KindFloat, len(gs))
	}
	for r, g := range gs {
		m := l.m[g]
		cols[0].F64[r], cols[1].F64[r], cols[2].F64[r], cols[3].F64[r] = m.n, m.mx, m.my, m.c
	}
	return cols
}

func (l *momentLane) load(cols []*vec.Vector) error {
	for g := range l.m[:cols[0].Len()] {
		l.m[g] = moment{cols[0].F64[g], cols[1].F64[g], cols[2].F64[g], cols[3].F64[g]}
	}
	return nil
}
func (l *momentLane) result(n int) (*vec.Vector, error) {
	out := vec.New(types.KindFloat, n)
	samp := l.fn == AggStddevSamp || l.fn == AggVarSamp || l.fn == AggCovarSamp
	for g, m := range l.m[:n] {
		div := m.n
		if samp {
			div--
		}
		if div <= 0 {
			out.SetNull(g)
			continue
		}
		v := m.c / div
		if !l.covar() && v < 0 {
			v = 0 // guard FP noise
		}
		if l.fn == AggStddevPop || l.fn == AggStddevSamp {
			v = math.Sqrt(v)
		}
		out.F64[g] = v
	}
	return out, nil
}

// --- MEDIAN / PERCENTILE: the group's values, a side structure that grows
// with input and is paid for by rowSurcharge.

type listLane struct {
	spec AggSpec
	vals [][]float64
}

func (l *listLane) width() int64 { return 24 }
func (l *listLane) grow(n int)   { l.vals = grown(l.vals, n) }

func (l *listLane) update(gids []uint32, a, _ *vec.Vector, sel []int, sc *laneScratch) error {
	vals, nulls, err := floatsOf(a, len(gids), sel, &sc.fa)
	if err == nil {
		listF64(gids, vals, nulls, sel, l.vals)
	}
	return err
}

//dashdb:hotpath
func listF64(gids []uint32, vals []float64, nulls *bitpack.Bitmap, sel []int, lists [][]float64) {
	for j, g := range gids {
		if i := at(sel, j); nulls == nil || !nulls.Get(i) {
			lists[g] = append(lists[g], vals[i])
		}
	}
}

func (l *listLane) merge(g uint32, o lane, og uint32) {
	if o, ok := o.(*listLane); ok {
		if l.vals[g] == nil {
			l.vals[g] = o.vals[og]
		} else {
			l.vals[g] = append(l.vals[g], o.vals[og]...)
		}
	}
}
func (l *listLane) clear(g uint32) { l.vals[g] = nil }

// spill packs a group's values into one VARCHAR, 8 bytes each.
func (l *listLane) spill(gs []uint32) []*vec.Vector {
	v := vec.New(types.KindString, len(gs))
	for r, g := range gs {
		var b []byte
		for _, x := range l.vals[g] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		v.Str[r] = string(b)
	}
	return []*vec.Vector{v}
}

func (l *listLane) load(cols []*vec.Vector) error {
	for g, s := range cols[0].Str {
		if len(s)%8 != 0 {
			return errBadRun
		}
		b, vals := []byte(s), make([]float64, len(s)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		l.vals[g] = vals
	}
	return nil
}

func (l *listLane) result(n int) (*vec.Vector, error) {
	out := vec.New(types.KindFloat, n)
	for g, vals := range l.vals[:n] {
		switch l.spec.Func {
		case AggMedian:
			out.Set(g, percentileCont(vals, 0.5))
		case AggPercentileCont:
			out.Set(g, percentileCont(vals, l.spec.Param))
		default:
			out.Set(g, percentileDisc(vals, l.spec.Param))
		}
	}
	return out, nil
}

// --- COUNT(DISTINCT): a set per group keyed by the canonical cell form the
// group table hashes key cells by (appendKeyCell), so a value is distinct
// here exactly when it would be its own GROUP BY group: one NaN, +0 = -0,
// 3 = 3.0, NULL skipped.

type distinctLane struct {
	sets []map[string]struct{}
	buf  []byte
}

func (l *distinctLane) width() int64 { return 8 }
func (l *distinctLane) grow(n int)   { l.sets = grown(l.sets, n) }

// update is COUNT(DISTINCT)'s boxed-read kernel.
//
//dashdb:hotpath
func (l *distinctLane) update(gids []uint32, a, _ *vec.Vector, sel []int, _ *laneScratch) error {
	for j, g := range gids {
		i := at(sel, j)
		v := a.Get(i)
		if v.IsNull() {
			continue
		}
		l.buf = appendKeyCell(l.buf[:0], v)
		if _, ok := l.sets[g][string(l.buf)]; !ok {
			l.add(g, string(l.buf))
		}
	}
	return nil
}

func (l *distinctLane) add(g uint32, key string) {
	if l.sets[g] == nil {
		l.sets[g] = make(map[string]struct{})
	}
	l.sets[g][key] = struct{}{}
}

func (l *distinctLane) merge(g uint32, o lane, og uint32) {
	o2, ok := o.(*distinctLane)
	if !ok {
		return
	}
	if l.sets[g] == nil {
		l.sets[g] = o2.sets[og]
		return
	}
	for key := range o2.sets[og] {
		l.sets[g][key] = struct{}{}
	}
}
func (l *distinctLane) clear(g uint32) { l.sets[g] = nil }

// spill packs a group's set into one VARCHAR, each canonical value behind
// its uvarint length.
func (l *distinctLane) spill(gs []uint32) []*vec.Vector {
	v := vec.New(types.KindString, len(gs))
	for r, g := range gs {
		var b []byte
		for key := range l.sets[g] {
			b = append(binary.AppendUvarint(b, uint64(len(key))), key...)
		}
		v.Str[r] = string(b)
	}
	return []*vec.Vector{v}
}

func (l *distinctLane) load(cols []*vec.Vector) error {
	for g, s := range cols[0].Str {
		l.sets[g] = nil
		for b := []byte(s); len(b) > 0; {
			n, w := binary.Uvarint(b)
			if w <= 0 || n > uint64(len(b)-w) {
				return errBadRun
			}
			l.add(uint32(g), string(b[w:w+int(n)]))
			b = b[w+int(n):]
		}
	}
	return nil
}

func (l *distinctLane) result(n int) (*vec.Vector, error) {
	out := vec.New(types.KindInt, n)
	for g, set := range l.sets[:n] {
		out.I64[g] = int64(len(set))
	}
	return out, nil
}
