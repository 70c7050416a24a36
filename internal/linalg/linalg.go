// Package linalg provides the small dense linear algebra kernels the
// collaborative-filtering algorithms need: a batched rank-8 Cholesky
// solve for the per-vertex normal equations of Alternating Least Squares,
// and a symmetric tridiagonal eigensolver for the Restarted Lanczos SVD.
//
// Problem sizes are tiny (the factor rank d, typically ≤ 32), so clarity
// beats blocking; the one exception is the Cholesky, whose fixed rank lets
// four solves share one pass.
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y (which must be equal length).
func Dot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Axpy computes y += a·x in place.
func Axpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// Scale multiplies x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// AddOuter accumulates A += x·xᵀ for the n×n row-major matrix A.
func AddOuter(a []float64, x []float64) {
	n := len(x)
	for i := 0; i < n; i++ {
		xi := x[i]
		row := a[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] += xi * x[j]
		}
	}
}

// CholeskySolve8x4 solves the four symmetric positive-definite 8×8
// systems a[s]·x[s] = b[s] at once, without allocating. Only the lower
// triangles are read; each is overwritten with its factor L of A = L·Lᵀ,
// so the four matrices must be distinct. Each system runs the textbook
// column Cholesky and the two substitutions in their usual order, so its
// solution is the one a single solve gives, bit for bit; the four are
// interleaved so their sqrt and divide chains overlap. ok[s] is false
// when a pivot of system s is ≤ 0 (x[s] is then meaningless); a NaN
// pivot is not caught. A tiny ridge can be added by the caller to
// guarantee positive-definiteness.
func CholeskySolve8x4(a *[4]*[8][8]float64, b *[4]*[8]float64, x *[4][8]float64) (ok [4]bool) {
	ok = [4]bool{true, true, true, true}
	m0, m1, m2, m3 := a[0], a[1], a[2], a[3]
	for j := 0; j < 8; j++ {
		d0, d1, d2, d3 := m0[j][j], m1[j][j], m2[j][j], m3[j][j]
		for k := 0; k < j; k++ {
			l0, l1, l2, l3 := m0[j][k], m1[j][k], m2[j][k], m3[j][k]
			d0 -= l0 * l0
			d1 -= l1 * l1
			d2 -= l2 * l2
			d3 -= l3 * l3
		}
		if d0 <= 0 {
			ok[0] = false
		}
		if d1 <= 0 {
			ok[1] = false
		}
		if d2 <= 0 {
			ok[2] = false
		}
		if d3 <= 0 {
			ok[3] = false
		}
		d0, d1, d2, d3 = math.Sqrt(d0), math.Sqrt(d1), math.Sqrt(d2), math.Sqrt(d3)
		m0[j][j], m1[j][j], m2[j][j], m3[j][j] = d0, d1, d2, d3
		for i := j + 1; i < 8; i++ {
			t0, t1, t2, t3 := m0[i][j], m1[i][j], m2[i][j], m3[i][j]
			for k := 0; k < j; k++ {
				t0 -= m0[i][k] * m0[j][k]
				t1 -= m1[i][k] * m1[j][k]
				t2 -= m2[i][k] * m2[j][k]
				t3 -= m3[i][k] * m3[j][k]
			}
			m0[i][j], m1[i][j], m2[i][j], m3[i][j] = t0/d0, t1/d1, t2/d2, t3/d3
		}
	}
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	x0, x1, x2, x3 := &x[0], &x[1], &x[2], &x[3]
	for i := 0; i < 8; i++ {
		t0, t1, t2, t3 := b0[i], b1[i], b2[i], b3[i]
		for k := 0; k < i; k++ {
			t0 -= m0[i][k] * x0[k]
			t1 -= m1[i][k] * x1[k]
			t2 -= m2[i][k] * x2[k]
			t3 -= m3[i][k] * x3[k]
		}
		x0[i], x1[i], x2[i], x3[i] = t0/m0[i][i], t1/m1[i][i], t2/m2[i][i], t3/m3[i][i]
	}
	for i := 7; i >= 0; i-- {
		t0, t1, t2, t3 := x0[i], x1[i], x2[i], x3[i]
		for k := i + 1; k < 8; k++ {
			t0 -= m0[k][i] * x0[k]
			t1 -= m1[k][i] * x1[k]
			t2 -= m2[k][i] * x2[k]
			t3 -= m3[k][i] * x3[k]
		}
		x0[i], x1[i], x2[i], x3[i] = t0/m0[i][i], t1/m1[i][i], t2/m2[i][i], t3/m3[i][i]
	}
	return ok
}

// SymTriEigenvalues returns the eigenvalues (ascending) of the symmetric
// tridiagonal matrix with the given diagonal and off-diagonal, using the
// implicit QL algorithm with Wilkinson shifts. diag has length n, off
// length n-1 (or n with the last entry ignored). Inputs are not modified.
func SymTriEigenvalues(diag, off []float64) ([]float64, error) {
	n := len(diag)
	if n == 0 {
		return nil, fmt.Errorf("linalg: empty tridiagonal matrix")
	}
	if len(off) < n-1 {
		return nil, fmt.Errorf("linalg: off-diagonal has %d entries, want at least %d", len(off), n-1)
	}
	d := append([]float64(nil), diag...)
	e := make([]float64, n)
	copy(e, off[:n-1]) // e[n-1] stays 0 as the algorithm's sentinel

	const maxSweeps = 60
	for l := 0; l < n; l++ {
		for sweep := 0; ; sweep++ {
			// Find a small off-diagonal to split at.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-15*dd {
					break
				}
			}
			if m == l {
				break
			}
			if sweep == maxSweeps {
				return nil, fmt.Errorf("linalg: tridiagonal QL did not converge at row %d", l)
			}
			// Wilkinson shift.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	// Insertion sort ascending (n is small).
	for i := 1; i < n; i++ {
		v := d[i]
		j := i - 1
		for j >= 0 && d[j] > v {
			d[j+1] = d[j]
			j--
		}
		d[j+1] = v
	}
	return d, nil
}

// MatVec computes y = A·x for the rows×cols row-major matrix A.
func MatVec(a []float64, rows, cols int, x []float64) []float64 {
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		y[i] = Dot(a[i*cols:(i+1)*cols], x)
	}
	return y
}
