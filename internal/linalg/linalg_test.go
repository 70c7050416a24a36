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

// choleskySolveOracle is the allocating solve CholeskySolve replaced,
// verbatim: it copies a, factors the copy and returns a fresh solution.
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

func TestCholeskySolveKnown(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 9] → x = [1.5, 2].
	a := []float64{4, 2, 2, 3}
	x := make([]float64, 2)
	if err := CholeskySolve(a, []float64{10, 9}, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1.5) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v, want [1.5 2]", x)
	}
}

func TestCholeskySolveRandomSPD(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(12)
		a := randomSPD(r, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = r.NormFloat64()
		}
		b := MatVec(a, n, n, want)
		x := make([]float64, n)
		if err := CholeskySolve(a, b, x); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], want[i])
			}
		}
	}
}

func TestCholeskySolveRejectsIndefinite(t *testing.T) {
	x := make([]float64, 2)
	for _, tc := range []struct {
		name string
		a, b []float64
	}{
		{"indefinite", []float64{1, 2, 2, 1}, []float64{1, 1}}, // eigenvalues 3, -1
		{"non-square", []float64{1, 2, 3}, []float64{1, 1}},
	} {
		_, want := choleskySolveOracle(tc.a, tc.b)
		err := CholeskySolve(append([]float64(nil), tc.a...), tc.b, x)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: error %v, oracle %v", tc.name, err, want)
		}
	}
	if err := CholeskySolve([]float64{4, 2, 2, 3}, []float64{1, 1}, make([]float64, 3)); err == nil {
		t.Fatal("wrong-size solution vector accepted")
	}
}

// TestCholeskySolveMatchesOracle holds the in-place solve to the
// allocating one it replaced, bit for bit: on the symmetric input, on the
// same input with its strict upper triangle (which the factorization
// never reads) set to NaN, and with x aliasing b.
func TestCholeskySolveMatchesOracle(t *testing.T) {
	r := rng.New(26)
	for _, n := range []int{8, 1, 2, 5} {
		for trial := 0; trial < 1000; trial++ {
			a := randomSPD(r, n)
			b := make([]float64, n)
			for i := range b {
				b[i] = r.NormFloat64()
			}
			want, err := choleskySolveOracle(a, b)
			if err != nil {
				t.Fatalf("n=%d trial %d: oracle: %v", n, trial, err)
			}
			lower := append([]float64(nil), a...)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					lower[i*n+j] = math.NaN()
				}
			}
			aliased := append([]float64(nil), b...)
			for _, in := range []struct {
				name    string
				a, b, x []float64
			}{
				{"symmetric", append([]float64(nil), a...), b, make([]float64, n)},
				{"lower", lower, b, make([]float64, n)},
				{"aliased", append([]float64(nil), a...), aliased, aliased},
			} {
				if err := CholeskySolve(in.a, in.b, in.x); err != nil {
					t.Fatalf("n=%d trial %d %s: %v", n, trial, in.name, err)
				}
				for i := range want {
					if math.Float64bits(in.x[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d trial %d %s: x[%d] = %v, oracle %v", n, trial, in.name, i, in.x[i], want[i])
					}
				}
			}
		}
	}
}

func TestCholeskySolveDoesNotAllocate(t *testing.T) {
	a0 := randomSPD(rng.New(3), 8)
	a := make([]float64, len(a0))
	b, x := make([]float64, 8), make([]float64, 8)
	b[0] = 1
	if n := testing.AllocsPerRun(100, func() {
		copy(a, a0)
		if err := CholeskySolve(a, b, x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("CholeskySolve allocates %v times per call, want 0", n)
	}
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
