package serve

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// reqInfo accumulates per-request facts the middleware cannot observe
// itself — cache disposition, worker-queue wait — so the wide-event
// access log and root span report them without threading return values
// through every handler. Handlers write, the middleware reads after
// ServeHTTP returns; queueWait is atomic because the singleflight leader
// may run on a different goroutine than the request that reads it.
type reqInfo struct {
	cache     atomic.Value // string: "hit" | "miss" | "coalesced"
	queueWait atomic.Int64 // nanoseconds spent waiting for a worker slot
}

func (ri *reqInfo) setCache(tag string) {
	if ri != nil {
		ri.cache.Store(tag)
	}
}

func (ri *reqInfo) cacheTag() string {
	if ri == nil {
		return ""
	}
	if v, ok := ri.cache.Load().(string); ok {
		return v
	}
	return ""
}

func (ri *reqInfo) addQueueWait(d time.Duration) {
	if ri != nil && d > 0 {
		ri.queueWait.Add(int64(d))
	}
}

type reqInfoKey struct{}

func withReqInfo(ctx context.Context) (context.Context, *reqInfo) {
	ri := &reqInfo{}
	return context.WithValue(ctx, reqInfoKey{}, ri), ri
}

func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// routeLabel maps a request to a bounded-cardinality route label: the
// mux pattern the request matches (whatever its method, so 405s label
// with the route they hit), "/api/unknown" for the API catch-all, one
// name for everything under /debug/, and "other" where nothing matches
// — never the raw path, which would let clients mint unbounded label
// values.
func (s *Server) routeLabel(r *http.Request) string {
	_, pattern := s.mux.Handler(r)
	switch {
	case pattern == unknownAPIRoute:
		return "/api/unknown"
	case strings.HasPrefix(r.URL.Path, "/debug/"):
		return "/debug"
	case pattern == "":
		return "other"
	}
	return pattern
}

// statusClass renders an HTTP status as its Prometheus-friendly class
// ("2xx", "4xx", ...), keeping the route histogram's code label at five
// values instead of one per status.
func statusClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	case status >= 200:
		return "2xx"
	default:
		return "1xx"
	}
}
