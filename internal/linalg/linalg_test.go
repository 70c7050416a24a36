package linalg

import (
	"fmt"
	"math"
	"testing"

	"gcbench/internal/rng"
)

func TestDotNormAxpyScale(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v, want 32", Dot(x, y))
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	Axpy(2, x, y)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Fatalf("Axpy result %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3 || y[1] != 4.5 || y[2] != 6 {
		t.Fatalf("Scale result %v", y)
	}
}

func TestAddOuter(t *testing.T) {
	a := make([]float64, 4)
	AddOuter(a, []float64{2, 3})
	want := []float64{4, 6, 6, 9}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("AddOuter = %v, want %v", a, want)
		}
	}
}

// choleskySolveOracle is the general-n allocating solve the batched
// CholeskySolve8x4 must match bit for bit: it copies a, factors the copy
// and returns a fresh solution.
func choleskySolveOracle(a []float64, b []float64) ([]float64, error) {
	n := len(b)
	if len(a) != n*n {
		return nil, fmt.Errorf("linalg: matrix is %d entries, want %d×%d", len(a), n, n)
	}
	// Factor A = L·Lᵀ into a copy.
	l := make([]float64, n*n)
	copy(l, a)
	for j := 0; j < n; j++ {
		d := l[j*n+j]
		for k := 0; k < j; k++ {
			d -= l[j*n+k] * l[j*n+k]
		}
		if d <= 0 {
			return nil, fmt.Errorf("linalg: matrix not positive definite at pivot %d (d=%g)", j, d)
		}
		d = math.Sqrt(d)
		l[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := l[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			l[i*n+j] = s / d
		}
	}
	// Forward substitution L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * y[k]
		}
		y[i] = s / l[i*n+i]
	}
	// Back substitution Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return x, nil
}

// randomSPD returns A = MᵀM + I for a random n×n M.
func randomSPD(r *rng.Source, n int) []float64 {
	m := make([]float64, n*n)
	for i := range m {
		m[i] = r.NormFloat64()
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += m[k*n+i] * m[k*n+j]
			}
			a[i*n+j] = s
		}
		a[i*n+i]++
	}
	return a
}

// system8 is one rank-8 system in CholeskySolve8x4's layout.
type system8 struct {
	a [8][8]float64
	b [8]float64
}

// flat8 is a copy of a as the row-major slice the oracle reads.
func flat8(a *[8][8]float64) []float64 {
	flat := make([]float64, 0, 64)
	for i := range a {
		flat = append(flat, a[i][:]...)
	}
	return flat
}

// randomSystem8 is a random SPD system from randomSPD with a normal b.
func randomSystem8(r *rng.Source) system8 {
	var sys system8
	a := randomSPD(r, 8)
	for i := range sys.a {
		copy(sys.a[i][:], a[i*8:])
		sys.b[i] = r.NormFloat64()
	}
	return sys
}

// solveBatch runs CholeskySolve8x4 on copies of the four systems, with
// every strict upper-triangle entry set to NaN when lowerOnly (the solve
// must never read one), and holds each slot to choleskySolveOracle on the
// full symmetric matrix: ok to the oracle's error, and an ok solution to
// the oracle's bit for bit.
func solveBatch(t testing.TB, sys *[4]system8, lowerOnly bool) [4]bool {
	t.Helper()
	var (
		work [4]system8
		a    [4]*[8][8]float64
		b    [4]*[8]float64
		x    [4][8]float64
	)
	for s := range sys {
		work[s] = sys[s]
		for i := 0; lowerOnly && i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				work[s].a[i][j] = math.NaN()
			}
		}
		a[s], b[s] = &work[s].a, &work[s].b
	}
	ok := CholeskySolve8x4(&a, &b, &x)
	for s := range sys {
		want, err := choleskySolveOracle(flat8(&sys[s].a), sys[s].b[:])
		if ok[s] != (err == nil) {
			t.Fatalf("slot %d: ok %v, oracle error %v", s, ok[s], err)
		}
		for i := 0; ok[s] && i < 8; i++ {
			if math.Float64bits(x[s][i]) != math.Float64bits(want[i]) {
				t.Fatalf("slot %d: x[%d] = %v, oracle %v", s, i, x[s][i], want[i])
			}
		}
	}
	return ok
}

func TestCholeskySolve8x4Known(t *testing.T) {
	r := rng.New(5)
	var sys [4]system8
	var want [4][]float64
	for s := range sys {
		sys[s] = randomSystem8(r)
		want[s] = make([]float64, 8)
		for i := range want[s] {
			want[s][i] = r.NormFloat64()
		}
		copy(sys[s].b[:], MatVec(flat8(&sys[s].a), 8, 8, want[s]))
	}
	var a [4]*[8][8]float64
	var b [4]*[8]float64
	var x [4][8]float64
	for s := range sys {
		a[s], b[s] = &sys[s].a, &sys[s].b
	}
	if ok := CholeskySolve8x4(&a, &b, &x); ok != [4]bool{true, true, true, true} {
		t.Fatalf("ok = %v on SPD systems", ok)
	}
	for s := range want {
		for i, w := range want[s] {
			if math.Abs(x[s][i]-w) > 1e-8 {
				t.Fatalf("slot %d: x[%d] = %v, want %v", s, i, x[s][i], w)
			}
		}
	}
}

// TestCholeskySolve8x4MatchesOracle holds the batched solve to the oracle
// bit for bit over 10⁴ random SPD systems, each on its symmetric matrix
// and on the same matrix with a NaN strict upper triangle.
func TestCholeskySolve8x4MatchesOracle(t *testing.T) {
	r := rng.New(26)
	for trial := 0; trial < 2500; trial++ {
		var sys [4]system8
		for s := range sys {
			sys[s] = randomSystem8(r)
		}
		for _, lowerOnly := range []bool{false, true} {
			if ok := solveBatch(t, &sys, lowerOnly); ok != [4]bool{true, true, true, true} {
				t.Fatalf("trial %d: ok = %v on SPD systems", trial, ok)
			}
		}
	}
}

// TestCholeskySolve8x4FailsOneSlot puts a system that is not positive
// definite in each slot in turn: that slot alone fails, the others still
// match the oracle. A NaN entry is not a failure, as in the oracle.
func TestCholeskySolve8x4FailsOneSlot(t *testing.T) {
	r := rng.New(11)
	var indefinite, singular, withNaN system8
	for i := range indefinite.a {
		indefinite.a[i][i] = 1
		indefinite.b[i] = 1
	}
	indefinite.a[1][0], indefinite.a[0][1] = 2, 2 // eigenvalues 3, -1: pivot 1 fails
	withNaN = randomSystem8(r)
	withNaN.a[5][2], withNaN.a[2][5] = math.NaN(), math.NaN()
	for _, tc := range []struct {
		name string
		bad  system8
		ok   bool
	}{
		{"indefinite", indefinite, false},
		{"singular", singular, false},
		{"nan", withNaN, true},
	} {
		for slot := 0; slot < 4; slot++ {
			var sys [4]system8
			for s := range sys {
				sys[s] = randomSystem8(r)
			}
			sys[slot] = tc.bad
			want := [4]bool{true, true, true, true}
			want[slot] = tc.ok
			if ok := solveBatch(t, &sys, true); ok != want {
				t.Fatalf("%s in slot %d: ok = %v, want %v", tc.name, slot, ok, want)
			}
		}
	}
}

func TestCholeskySolve8x4DoesNotAllocate(t *testing.T) {
	r := rng.New(3)
	var sys, work [4]system8
	var a [4]*[8][8]float64
	var b [4]*[8]float64
	var x [4][8]float64
	for s := range sys {
		sys[s] = randomSystem8(r)
		a[s], b[s] = &work[s].a, &work[s].b
	}
	if n := testing.AllocsPerRun(100, func() {
		work = sys
		if ok := CholeskySolve8x4(&a, &b, &x); !ok[0] {
			t.Fatal("SPD system failed")
		}
	}); n != 0 {
		t.Fatalf("CholeskySolve8x4 allocates %v times per call, want 0", n)
	}
}

// FuzzCholeskyBatchMatchesOracle turns fuzzed bytes into four rank-8
// systems A = MᵀM + c·I, where a negative or zero c makes some of them
// not positive definite and a mode byte can plant a special value
// (NaN, ±Inf, ±0, huge, tiny) in one symmetric entry pair. The batched
// solve must match choleskySolveOracle slot by slot, bit for bit.
func FuzzCholeskyBatchMatchesOracle(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0x80, 0x10, 0xff, 0x7f, 0x01, 0x00, 0x42, 0x99, 0x07, 0x0e})
	f.Add([]byte{7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<12 {
			t.Skip()
		}
		pos := 0
		next := func() byte { c := data[pos%len(data)]; pos++; return c }
		val := func() float64 { return float64(int8(next())) / 16 }
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e300, 1e-300}
		var sys [4]system8
		for s := range sys {
			mode := next()
			var m [8][8]float64
			for i := range m {
				for j := range m[i] {
					m[i][j] = val()
				}
			}
			shift := val()
			for i := 0; i < 8; i++ {
				for j := 0; j <= i; j++ {
					var v float64
					for k := 0; k < 8; k++ {
						v += m[k][i] * m[k][j]
					}
					if i == j {
						v += shift
					}
					sys[s].a[i][j], sys[s].a[j][i] = v, v
				}
				sys[s].b[i] = val()
			}
			if mode%4 == 0 {
				i, j := int(next()%8), int(next()%8)
				v := special[int(next())%len(special)]
				sys[s].a[i][j], sys[s].a[j][i] = v, v
			}
		}
		solveBatch(t, &sys, data[0]%2 == 1)
	})
}

// choleskySolve8 is one system at a time in the oracle's operation order,
// in place and without allocating: the single solve CholeskySolve8x4
// batches, kept as BenchmarkCholesky's baseline.
func choleskySolve8(a *[8][8]float64, b, x *[8]float64) bool {
	for j := 0; j < 8; j++ {
		d := a[j][j]
		for _, l := range a[j][:j] {
			d -= l * l
		}
		if d <= 0 {
			return false
		}
		d = math.Sqrt(d)
		a[j][j] = d
		for i := j + 1; i < 8; i++ {
			s := a[i][j]
			for k, l := range a[j][:j] {
				s -= a[i][k] * l
			}
			a[i][j] = s / d
		}
	}
	for i := 0; i < 8; i++ {
		s := b[i]
		for k, l := range a[i][:i] {
			s -= l * x[k]
		}
		x[i] = s / a[i][i]
	}
	for i := 7; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < 8; k++ {
			s -= a[k][i] * x[k]
		}
		x[i] = s / a[i][i]
	}
	return true
}

// BenchmarkCholesky prices one rank-8 SPD solve (ns/solve) batched four
// to a call against the single solve, over 64 random systems restored
// before every call. The single solve is checked against the oracle first.
func BenchmarkCholesky(b *testing.B) {
	r := rng.New(8)
	var sys [64]system8
	for i := range sys {
		sys[i] = randomSystem8(r)
	}
	var x [8]float64
	one := sys[0]
	want, _ := choleskySolveOracle(flat8(&one.a), one.b[:])
	if !choleskySolve8(&one.a, &one.b, &x) || x != [8]float64(want) {
		b.Fatal("single solve does not match the oracle")
	}
	b.Run("batched", func(b *testing.B) {
		var work [4]system8
		var a [4]*[8][8]float64
		var rhs [4]*[8]float64
		var x [4][8]float64
		for s := range work {
			a[s], rhs[s] = &work[s].a, &work[s].b
		}
		for i := 0; i < b.N; i++ {
			copy(work[:], sys[i*4%len(sys):])
			CholeskySolve8x4(&a, &rhs, &x)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N), "ns/solve")
	})
	b.Run("single", func(b *testing.B) {
		var work system8
		for i := 0; i < b.N; i++ {
			for s := 0; s < 4; s++ {
				work = sys[(i*4+s)%len(sys)]
				choleskySolve8(&work.a, &work.b, &x)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N), "ns/solve")
	})
}

func TestSymTriEigenvaluesKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	vals, err := SymTriEigenvalues([]float64{2, 2}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-10 || math.Abs(vals[1]-3) > 1e-10 {
		t.Fatalf("eigenvalues = %v, want [1 3]", vals)
	}
}

func TestSymTriEigenvaluesLaplacian(t *testing.T) {
	// The path-graph Laplacian tridiagonal (diag 2, off -1, with ends 1)
	// of size n has eigenvalues 2 - 2cos(kπ/n), k = 0..n-1.
	n := 12
	diag := make([]float64, n)
	off := make([]float64, n-1)
	for i := range diag {
		diag[i] = 2
	}
	diag[0], diag[n-1] = 1, 1
	for i := range off {
		off[i] = -1
	}
	vals, err := SymTriEigenvalues(diag, off)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n))
		if math.Abs(vals[k]-want) > 1e-9 {
			t.Fatalf("eigenvalue %d = %v, want %v", k, vals[k], want)
		}
	}
}

func TestSymTriEigenvaluesSingleEntry(t *testing.T) {
	vals, err := SymTriEigenvalues([]float64{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 7 {
		t.Fatalf("vals = %v, want [7]", vals)
	}
}

func TestSymTriEigenvaluesDiagonalMatrix(t *testing.T) {
	vals, err := SymTriEigenvalues([]float64{3, 1, 2}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}

func TestSymTriEigenvaluesErrors(t *testing.T) {
	if _, err := SymTriEigenvalues(nil, nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := SymTriEigenvalues([]float64{1, 2, 3}, []float64{1}); err == nil {
		t.Fatal("short off-diagonal accepted")
	}
}

// Property: eigenvalue sum equals trace, eigenvalue sum of squares equals
// Frobenius norm squared, for random tridiagonals.
func TestSymTriEigenvaluesInvariants(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(20)
		diag := make([]float64, n)
		off := make([]float64, max(0, n-1))
		trace := 0.0
		frob := 0.0
		for i := range diag {
			diag[i] = r.NormFloat64() * 3
			trace += diag[i]
			frob += diag[i] * diag[i]
		}
		for i := range off {
			off[i] = r.NormFloat64()
			frob += 2 * off[i] * off[i]
		}
		vals, err := SymTriEigenvalues(diag, off)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var sum, sumSq float64
		for _, v := range vals {
			sum += v
			sumSq += v * v
		}
		if math.Abs(sum-trace) > 1e-8*(1+math.Abs(trace)) {
			t.Fatalf("trial %d: eigen-sum %v != trace %v", trial, sum, trace)
		}
		if math.Abs(sumSq-frob) > 1e-8*(1+frob) {
			t.Fatalf("trial %d: eigen-sum-sq %v != frobenius %v", trial, sumSq, frob)
		}
		// Ascending order.
		for i := 1; i < len(vals); i++ {
			if vals[i-1] > vals[i]+1e-12 {
				t.Fatalf("trial %d: eigenvalues not sorted: %v", trial, vals)
			}
		}
	}
}
