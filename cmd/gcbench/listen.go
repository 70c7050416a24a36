package main

import (
	"context"
	"net"
	"net/http"
	"time"
)

// serveHTTP is the one listener lifecycle of every long-running
// subcommand (`sweep -listen`, `serve`, `shard-serve`). It binds addr
// (":0" picks a free port) before returning, so a bad address fails
// before the caller starts any work, then serves h in the background.
//
// stop(d) stops accepting connections and waits up to d for in-flight
// requests to finish; stop with d ≤ 0 closes every connection at once.
func serveHTTP(addr string, h http.Handler) (url string, stop func(drain time.Duration) error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	stop = func(drain time.Duration) error {
		if drain <= 0 {
			return srv.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		return srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}
