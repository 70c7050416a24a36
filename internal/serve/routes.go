package serve

import (
	"net/http"
	"sort"
	"strings"
)

// eventStreamRoute is the long-lived NDJSON job event stream, the one
// route that must not inherit the per-request deadline.
const eventStreamRoute = "/api/jobs/{id}/events"

// unknownAPIRoute is the catch-all under the API prefix; it only
// answers 404.
const unknownAPIRoute = "/api/"

// methods is the handler of one API pattern: the pattern is registered
// on the mux without a method, so a wrong-method hit still reaches the
// route and gets the same structured JSON error envelope (plus an
// accurate Allow header) every other API failure uses, instead of
// net/http's bare text 405.
type methods map[string]http.HandlerFunc

func (m methods) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	method := r.Method
	if method == http.MethodHead {
		// HEAD is served through the GET handler, as the mux would.
		method = http.MethodGet
	}
	if h, ok := m[method]; ok {
		h(w, r)
		return
	}
	allowed := make([]string, 0, len(m)+1)
	for has := range m {
		allowed = append(allowed, has)
		if has == http.MethodGet {
			allowed = append(allowed, http.MethodHead)
		}
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
		"%s does not allow %s (allowed: %s)", r.URL.Path, r.Method, allow)
}
