package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Update is the -update flag, for the external tests of this directory.
var Update = update

// FamilyLines describes every registered family as its `# TYPE name
// kind` exposition line, followed by ` {label,names}` when it has any —
// what a scrape can rely on before any child exists. Test-only: label
// names are not otherwise observable until a child is created.
func (r *Registry) FamilyLines() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	describe := func(name, kind string, labels []string) string {
		line := fmt.Sprintf("# TYPE %s %s", name, kind)
		if len(labels) > 0 {
			line += " {" + strings.Join(labels, ",") + "}"
		}
		return line
	}
	var lines []string
	for name, m := range r.metrics {
		switch f := m.(type) {
		case *family[Counter]:
			lines = append(lines, describe(name, "counter", f.labels))
		case *family[Gauge]:
			lines = append(lines, describe(name, "gauge", f.labels))
		case *family[Histogram]:
			lines = append(lines, describe(name, "histogram", f.labels))
		}
	}
	sort.Strings(lines)
	return lines
}
