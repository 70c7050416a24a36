package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// corpusRun is the part of one record of a `gcbench sweep -out` corpus the
// counter digest covers. raw is <UPDT, WORK, EREAD, MSG>; WORK is wall
// clock and is left out, everything else is an exact count or derived
// from exact counts and must repeat bit for bit.
type corpusRun struct {
	Algorithm      string     `json:"algorithm"`
	Model          string     `json:"model"`
	SizeLabel      string     `json:"sizeLabel"`
	Alpha          float64    `json:"alpha"`
	Iterations     int        `json:"iterations"`
	Converged      bool       `json:"converged"`
	ActiveFraction []float64  `json:"activeFraction"`
	Raw            [4]float64 `json:"raw"`
}

// counterDigest hashes (identity, model, iterations, converged, UPDT,
// EREAD, MSG, activeFraction) of every run in file order. Floats are
// rendered in their shortest round-trip form, so the digest depends on
// the values alone, not on how the corpus file spells them.
func counterDigest(runs []corpusRun) string {
	h := sha256.New()
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range runs {
		fmt.Fprintf(h, "%s|%s|%s|%s|%d|%t|%s|%s|%s|", r.Algorithm, r.SizeLabel, num(r.Alpha), r.Model,
			r.Iterations, r.Converged, num(r.Raw[0]), num(r.Raw[2]), num(r.Raw[3]))
		for _, a := range r.ActiveFraction {
			fmt.Fprintf(h, "%s,", num(a))
		}
		fmt.Fprint(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

func loadCorpus(path string) ([]corpusRun, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []corpusRun
	if err := json.Unmarshal(body, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// bodyDigest folds the probe responses, in probe order, into one hash.
func bodyDigest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// expectedPath holds the committed digests; `bench -update-expected`
// rewrites it.
const expectedPath = "bench/expected/digests.json"

// expected is the committed reference output. Campaign digests are keyed
// "<workload>/seed=<n>/workers=1": float reductions may associate
// differently under another worker count, so the sweeps fix theirs and the
// key says so. Probe digests do not depend on the seed (the probe list is
// fixed) and are keyed by the probe list's name.
type expected struct {
	Campaign map[string]string `json:"campaign"`
	Probes   map[string]string `json:"probes"`
}

func campaignKey(workload string, seed uint64) string {
	return fmt.Sprintf("%s/seed=%d/workers=1", workload, seed)
}

func loadExpected() (*expected, error) {
	e := &expected{Campaign: map[string]string{}, Probes: map[string]string{}}
	body, err := os.ReadFile(expectedPath)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	return e, nil
}

func (e *expected) save() error {
	body, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(body, '\n'), 0o644)
}
