// Package linalg provides the small dense linear algebra kernels the
// collaborative-filtering algorithms need: SPD Cholesky solves for the
// per-vertex normal equations of Alternating Least Squares, and a
// symmetric tridiagonal eigensolver for the Restarted Lanczos SVD.
//
// Matrices are row-major flat slices. Problem sizes are tiny (the factor
// rank d, typically ≤ 32), so clarity beats blocking.
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

// CholeskySolve solves A·x = b for symmetric positive-definite A (n×n
// row-major) without allocating. Only the lower triangle of a is read; it
// is overwritten with the factor L of A = L·Lᵀ. b is left alone unless x
// aliases it, which is allowed. A tiny ridge can be added by the caller to
// guarantee positive-definiteness.
func CholeskySolve(a, b, x []float64) error {
	n := len(b)
	if len(a) != n*n {
		return fmt.Errorf("linalg: matrix is %d entries, want %d×%d", len(a), n, n)
	}
	if len(x) != n {
		return fmt.Errorf("linalg: solution is %d entries, want %d", len(x), n)
	}
	for j := 0; j < n; j++ {
		rj := a[j*n : j*n+j+1]
		d := rj[j]
		for _, l := range rj[:j] {
			d -= l * l
		}
		if d <= 0 {
			return fmt.Errorf("linalg: matrix not positive definite at pivot %d (d=%g)", j, d)
		}
		d = math.Sqrt(d)
		rj[j] = d
		for i := j + 1; i < n; i++ {
			ri := a[i*n : i*n+j+1]
			s := ri[j]
			for k, l := range rj[:j] {
				s -= ri[k] * l
			}
			ri[j] = s / d
		}
	}
	// Forward substitution L·y = b, y held in x.
	for i := 0; i < n; i++ {
		ri := a[i*n : i*n+i+1]
		s := b[i]
		for k, l := range ri[:i] {
			s -= l * x[k]
		}
		x[i] = s / ri[i]
	}
	// Back substitution Lᵀ·x = y, in place: x[k] is final for k > i.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= a[k*n+i] * x[k]
		}
		x[i] = s / a[i*n+i]
	}
	return nil
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
