package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// promSample is a scrape of a Prometheus text exposition: one value per
// series, keyed by the series as written (`name` or `name{labels}`).
type promSample map[string]float64

// parseProm reads the text format. Comment lines, blank lines and lines
// whose value does not parse are skipped: the benchmark only ever reads
// series it names, so an unknown line is not its business.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces; label
		// values may hold spaces, the series name and the number cannot.
		cut := strings.LastIndexByte(line, ' ')
		if end := strings.LastIndexByte(line, '}'); end > cut {
			continue
		}
		if cut <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// delta returns after − before per series. A series absent from before
// counts from 0 (label sets appear on first use).
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// total sums every series of the metric name whose label block contains
// each of the given `label="value"` fragments.
func (s promSample) total(name string, labels ...string) float64 {
	var t float64
	for k, v := range s {
		base, lbl := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base, lbl = k[:i], k[i:]
		}
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// ratio is num/den, 0 when the denominator is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
