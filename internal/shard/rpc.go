package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// The shard wire protocol is deliberately minimal: each ShardClient
// method maps to one POST endpoint carrying the method's JSON-tagged
// request struct and returning its response struct — exactly the
// shapes PR 8 gave the interface so this transport could be dropped in
// without touching the coordinator.
//
//	POST /rpc/info     InfoRequest    → InfoResponse
//	POST /rpc/get      GetRequest     → GetResponse
//	POST /rpc/select   SelectRequest  → SelectResponse
//	POST /rpc/publish  PublishRequest → PublishResponse
//	GET  /healthz      liveness probe (200 whenever the process serves)
//
// Application errors (e.g. "no snapshot published" on a freshly
// restarted, not-yet-rehydrated replica) return 500 with a JSON
// {"error": ...} body — 400 for an undecodable request, 413 for one
// over maxRPCBody; the client surfaces them verbatim and does not
// retry — retry is reserved for transport faults, where the request
// may never have reached the shard.

// rpcError is the wire error envelope.
type rpcError struct {
	Error string `json:"error"`
}

// maxRPCBody bounds one /rpc/* request body. The largest legitimate
// request is a full-partition publish (a Replace carrying every record a
// shard owns, activity series included — about 1.5 KB per record), so
// the bound is sized for partitions of ~10^5 records; anything larger is
// answered 413 instead of being buffered.
const maxRPCBody = 256 << 20

// RPCHandler exposes client over the shard wire protocol. One handler
// serves one shard replica; a process typically wraps it in its own
// http.Server (see `gcbench shard-serve`).
func RPCHandler(client ShardClient) http.Handler { return rpcHandler(client, maxRPCBody) }

// rpcHandler is RPCHandler with the body bound as a parameter, so the
// tests can hit the bound without quarter-gigabyte bodies.
func rpcHandler(client ShardClient, maxBody int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	rpcRoute(mux, "info", maxBody, client.Info)
	rpcRoute(mux, "get", maxBody, client.Get)
	rpcRoute(mux, "select", maxBody, client.Select)
	rpcRoute(mux, "publish", maxBody, client.Publish)
	return mux
}

// rpcRoute registers one method endpoint: decode the request struct,
// invoke the method with the request's context, encode the response.
func rpcRoute[Req, Resp any](mux *http.ServeMux, name string, maxBody int64, call func(context.Context, Req) (Resp, error)) {
	mux.HandleFunc("POST /rpc/"+name, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeRPC(w, status, rpcError{Error: fmt.Sprintf("decoding %s request: %v", name, err)})
			return
		}
		resp, err := call(r.Context(), req)
		if err != nil {
			writeRPC(w, http.StatusInternalServerError, rpcError{Error: err.Error()})
			return
		}
		writeRPC(w, http.StatusOK, resp)
	})
}

func writeRPC(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// NewProcessShard returns the ShardClient a standalone shard process
// serves: one replica endpoint of shard id, the same LocalShard the
// in-process deployment routes to. The coordinator's ReplicaSet is the
// replica fan-out, so R replicas of a shard are R of these processes.
func NewProcessShard(id int) *LocalShard { return NewLocalShard(id) }
