// Command maybms-serve is a concurrent multi-session I-SQL server over
// the MayBMS engine.
//
// Usage:
//
//	maybms-serve [-tcp addr] [-http addr] [-workers n] [...]
//
// It speaks two transports sharing one session registry:
//
//   - TCP (default :7171): newline-delimited JSON — one request object per
//     line, one response object per line, in order. Try:
//
//     printf '%s\n' \
//     '{"session":"demo","query":"create table R (A, B)"}' \
//     '{"session":"demo","query":"insert into R values (1, 2)"}' \
//     '{"session":"demo","query":"select * from R choice of A","render":true}' \
//     | nc localhost 7171
//
//   - HTTP (default :7172): POST /v1/query with the same JSON request as
//     the body (add ?trace=1 or "trace": true for the statement's span
//     trace in the response); GET /v1/health for liveness plus
//     shared-plan-cache statistics; GET /v1/stats additionally reports,
//     per session, the backend, world count, plan-cache attribution, and
//     the compact engine's merge and per-route statement counts (also
//     available as the "stats" protocol op); GET /metrics in Prometheus
//     text format.
//
// Observability flags: -slow-query logs statements slower than the given
// duration as structured JSON lines (with span traces) to stderr;
// -pprof serves net/http/pprof profiling endpoints on its own address
// (keep it off public interfaces).
//
// Sessions are named databases created on first use (request field
// "session", default "default") with a "backend" of "naive" (full I-SQL)
// or "compact" (the world-set-decomposition engine), evicted after
// -idle of inactivity. Statements on one session serialize; different
// sessions run concurrently, at most -workers statements at once across the
// whole process (each statement runs on one goroutine), and all sessions
// share one compiled-statement cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only when -pprof is set
	"os"
	"os/signal"
	"syscall"
	"time"

	"maybms/internal/server"
)

func main() {
	var cfg server.Config
	flag.StringVar(&cfg.TCPAddr, "tcp", ":7171", "TCP listen address for the line/JSON protocol (empty disables)")
	flag.StringVar(&cfg.HTTPAddr, "http", ":7172", "HTTP listen address for /v1/query, /v1/health and /v1/stats (empty disables)")
	flag.IntVar(&cfg.Workers, "workers", 0, "statements executing at once across sessions (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.MaxSessions, "max-sessions", server.DefaultMaxSessions, "maximum live sessions")
	flag.DurationVar(&cfg.IdleTimeout, "idle", server.DefaultIdleTimeout, "evict sessions idle this long (<0 disables)")
	flag.IntVar(&cfg.MaxRows, "max-rows", server.DefaultMaxRows, "rows encoded per relation per response (-1 = unlimited)")
	flag.IntVar(&cfg.MaxWorlds, "max-worlds", 0, "per-session world / merge limit (0 = engine default)")
	flag.DurationVar(&cfg.RequestTimeout, "timeout", 0, "hard cap on per-request execution time (0 = uncapped)")
	flag.IntVar(&cfg.PlanCacheCapacity, "plan-cache", 0, "shared plan cache capacity (0 = default)")
	flag.DurationVar(&cfg.SlowQueryThreshold, "slow-query", 0, "log statements slower than this as JSON to stderr (0 disables)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty disables; do not expose publicly)")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// http.DefaultServeMux carries the pprof handlers via the
			// blank import above; nothing else registers on it here.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "maybms-serve: pprof:", err)
			}
		}()
		fmt.Println("maybms-serve: pprof on", *pprofAddr)
	}

	srv := server.New(cfg)
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "maybms-serve:", err)
		os.Exit(1)
	}
	if a := srv.TCPAddr(); a != nil {
		fmt.Println("maybms-serve: tcp listening on", a)
	}
	if a := srv.HTTPAddr(); a != nil {
		fmt.Println("maybms-serve: http listening on", a)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("maybms-serve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "maybms-serve: shutdown:", err)
		os.Exit(1)
	}
}
