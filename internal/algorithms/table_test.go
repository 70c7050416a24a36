package algorithms

import (
	"reflect"
	"testing"
)

// The matrix is stated once, in table. The literals here pin what the
// rest of the tree derives from it: presentation order (which is plan
// order), the five domain strings stored in every corpus record, the
// family strings hashed into every graph seed, and the eleven
// graph-varying names of the §5.2 ensemble pool.
func TestTable(t *testing.T) {
	order := []Name{CC, KC, TC, SSSP, PR, AD, KM, ALS, NMF, SGD, SVD, Jacobi, LBP, DD}
	if got := AllNames(); !reflect.DeepEqual(got, order) {
		t.Fatalf("AllNames() = %v, want %v", got, order)
	}
	if len(rowOf) != len(table) {
		t.Fatalf("%d rows for %d distinct names: an algorithm is listed twice", len(table), len(rowOf))
	}

	domains := map[string][]Name{
		"Graph Analytics":         {CC, KC, TC, SSSP, PR, AD},
		"Clustering":              {KM},
		"Collaborative Filtering": {ALS, NMF, SGD, SVD},
		"Linear Solver":           {Jacobi},
		"Graphical Model":         {LBP, DD},
	}
	families := map[Family][]Name{
		"ga":     {CC, KC, TC, SSSP, PR, AD, KM},
		"cf":     {ALS, NMF, SGD, SVD},
		"jacobi": {Jacobi},
		"lbp":    {LBP},
		"dd":     {DD},
	}
	gotDomains, gotFamilies := map[string][]Name{}, map[Family][]Name{}
	var varying, constant []Name
	for _, n := range AllNames() {
		gotDomains[n.Domain()] = append(gotDomains[n.Domain()], n)
		gotFamilies[n.Family()] = append(gotFamilies[n.Family()], n)
		if n.GraphVarying() {
			varying = append(varying, n)
		}
		if n.ConstantBehavior() {
			constant = append(constant, n)
		}
	}
	if !reflect.DeepEqual(gotDomains, domains) {
		t.Errorf("domains = %v, want %v", gotDomains, domains)
	}
	if !reflect.DeepEqual(gotFamilies, families) {
		t.Errorf("families = %v, want %v", gotFamilies, families)
	}
	if want := []Name{CC, KC, TC, SSSP, PR, AD, KM, ALS, NMF, SGD, SVD}; !reflect.DeepEqual(varying, want) {
		t.Errorf("graph-varying = %v, want %v", varying, want)
	}
	if want := []Name{AD, KM, NMF, SGD, SVD}; !reflect.DeepEqual(constant, want) {
		t.Errorf("constant-behavior = %v, want %v", constant, want)
	}

	// A name outside the table has no metadata and joins no pool.
	if n := Name("BFS"); n.Domain() != "Unknown" || n.Family() != "" || n.GraphVarying() || n.ConstantBehavior() {
		t.Errorf("unknown name reads as %q/%q/%t/%t", n.Domain(), n.Family(), n.GraphVarying(), n.ConstantBehavior())
	}
}

// TestParseAllocs: resolving a known name allocates nothing (a cold
// design parses every pool algorithm, the read path every
// ?algorithm= filter), and an unknown one keeps its error text.
func TestParseAllocs(t *testing.T) {
	for _, s := range []string{"CC", "pr", "als", "Jacobi", "DD"} {
		if a := testing.AllocsPerRun(100, func() {
			if _, err := Parse(s); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("Parse(%q): %v allocs, want 0", s, a)
		}
	}
	const want = `algorithms: unknown algorithm "bogus" (known: [CC KC TC SSSP PR AD KM ALS NMF SGD SVD Jacobi LBP DD])`
	if _, err := Parse("bogus"); err == nil || err.Error() != want {
		t.Fatalf("Parse(bogus) error = %v, want %s", err, want)
	}
}
