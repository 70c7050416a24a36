package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/url"
	"testing"
)

// TestPredictAlpha: an alpha with nothing to interpolate from — not a
// number, infinite, or so large every distance to the corpus overflows —
// is a 400 invalid_request, not a 500 from encoding NaN; an ordinary
// alpha between the corpus's own still answers.
func TestPredictAlpha(t *testing.T) {
	s := newTestServer(t, nil)
	for _, c := range []struct {
		alpha string
		code  int
	}{
		{"NaN", http.StatusBadRequest},
		{"Inf", http.StatusBadRequest},
		{"-Inf", http.StatusBadRequest},
		{"1e308", http.StatusBadRequest},
		{"2.1", http.StatusOK},
	} {
		w := get(t, s, "/api/predict?algorithm=PR&edges=500000&alpha="+c.alpha)
		if w.Code != c.code {
			t.Errorf("alpha=%s: %d %s, want %d", c.alpha, w.Code, w.Body.String(), c.code)
			continue
		}
		if c.code == http.StatusBadRequest && decodeError(t, w) != "invalid_request" {
			t.Errorf("alpha=%s: %s", c.alpha, w.Body.String())
		}
	}
}

// FuzzPredictQuery sends GET /api/predict arbitrary algorithm, edges,
// alpha and model values over the standard corpus. Every answer is a 200
// whose body parses and holds only finite numbers, or a 4xx with a
// structured error — never a 5xx, a known model the corpus holds no
// runs of (the standard corpus is GAS only) included. Answers are
// cached, so a replayed input covers the hit path instead of the miss
// path; run it with a bounded -fuzzminimizetime (CI uses 100x).
func FuzzPredictQuery(f *testing.F) {
	for _, seed := range [][4]string{
		{"PR", "500000", "NaN", ""},
		{"PR", "500000", "Inf", ""},
		{"PR", "500000", "-Inf", ""},
		{"PR", "500000", "1e308", ""},
		{"PR", "500000", "2.1", ""},
		{"als", "1000", "2.5", "gas"},
		{"CC", "300", "2.2", "pregel"},
		{"NOPE", "-5", "zebra", "sparkle"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	s := newTestServer(f, nil)
	f.Fuzz(func(t *testing.T, alg, edges, alpha, modelName string) {
		q := url.Values{"algorithm": {alg}, "edges": {edges}, "alpha": {alpha}, "model": {modelName}}
		w := get(t, s, "/api/predict?"+q.Encode())
		switch {
		case w.Code == http.StatusOK:
			var body any
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s: 200 body does not parse: %v\n%s", q.Encode(), err, w.Body.String())
			}
			if !allFinite(body) {
				t.Fatalf("%s: 200 body holds a non-finite number:\n%s", q.Encode(), w.Body.String())
			}
		case w.Code >= 400 && w.Code < 500:
			decodeError(t, w)
		default:
			t.Fatalf("%s: %d %s", q.Encode(), w.Code, w.Body.String())
		}
	})
}

// allFinite reports whether every number in a decoded JSON value is
// finite.
func allFinite(v any) bool {
	switch v := v.(type) {
	case float64:
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	case []any:
		for _, e := range v {
			if !allFinite(e) {
				return false
			}
		}
	case map[string]any:
		for _, e := range v {
			if !allFinite(e) {
				return false
			}
		}
	}
	return true
}
