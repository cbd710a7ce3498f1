package maybms

// serve.go exports the multi-session I-SQL server (internal/server) and
// the knobs of the process-wide shared plan cache. See cmd/maybms-serve
// for the standalone binary and examples/server for a quickstart.

import (
	"maybms/internal/plan"
	"maybms/internal/server"
)

// ServerConfig parameterizes an I-SQL server; see the field docs on
// server.Config (TCP + HTTP addresses, workers, session/row/world bounds,
// idle eviction, request deadlines).
type ServerConfig = server.Config

// Server is a concurrent multi-session I-SQL server: named sessions over
// naive or compact backends, a newline-delimited JSON protocol over TCP,
// HTTP POST /v1/query and GET /v1/health, per-request deadlines with
// cooperative statement cancellation, bounded result encoding, idle
// eviction and graceful shutdown. All sessions share the process-wide
// plan cache.
type Server = server.Server

// ServerRequest and ServerResponse are the wire types of the server
// protocol (one JSON object per line over TCP; the POST /v1/query body
// and response over HTTP). Clients decode response lines into
// ServerResponse. An in-process caller of (*Server).Handle does the same:
// the server writes answer cells straight from the engine's columns into
// the response line, so Handle's ServerResponse carries the envelope (OK,
// Error, Kind, Text, Truncated, Trace, …) with Worlds and Groups empty,
// and json.Unmarshal of its Line() yields the cells.
type (
	ServerRequest  = server.Request
	ServerResponse = server.Response
)

// NewServer creates a server from cfg without binding its listeners.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// Serve creates a server and starts its listeners. Stop it with
// (*Server).Shutdown.
func Serve(cfg ServerConfig) (*Server, error) {
	srv := server.New(cfg)
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// PlanCacheStats is a snapshot of shared plan cache traffic.
type PlanCacheStats = plan.CacheStats

// SharedPlanCacheStats returns the traffic counters of the process-wide
// compiled-statement cache that all sessions (embedded and served) use by
// default.
func SharedPlanCacheStats() PlanCacheStats { return plan.SharedCache().Stats() }

// SetSharedPlanCacheCapacity re-bounds the process-wide plan cache (LRU
// entries; values < 1 restore the default).
func SetSharedPlanCacheCapacity(n int) { plan.SharedCache().SetCapacity(n) }
