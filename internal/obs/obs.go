// Package obs serves a solver run's observability surface over HTTP: a
// metrics Source (one registry, or the job server's gatherer) in Prometheus
// text and JSON form, the stdlib pprof profiler, and expvar. It is what
// `mkpsolve -listen :6060` mounts, and what `go tool pprof` and
// `curl /metrics` talk to against a live run.
//
// The server owns nothing but the listener: it reads the source on each
// request (snapshots are lock-free for writers), starts one goroutine, and
// Close shuts it down without leaking — the goroutine-leak test pins that
// down, because a solver embedded in a long-lived service must be able to
// start and stop this endpoint per run.
package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/metrics"
)

// Source is anything that can render a metrics exposition: a single
// *metrics.Registry, or a *metrics.Gatherer merging many per-run registries
// under run labels (what the job server mounts).
type Source interface {
	WriteProm(io.Writer) error
	Snapshot() *metrics.Snapshot
}

// Server is a running observability endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve starts the endpoint on addr (e.g. ":6060" or "127.0.0.1:0"). The
// source may be nil, in which case /metrics serves an empty exposition —
// pprof and expvar still work. Call Close to shut down.
func Serve(addr string, src Source) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:   ln,
		done: make(chan struct{}),
	}
	s.srv = &http.Server{
		Handler:           Handler(src),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		defer close(s.done)
		// ErrServerClosed is the normal Close path; anything else is dropped
		// because there is no caller left to report it to.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Handler returns the observability mux over src: /metrics (Prometheus
// text), /metrics.json (snapshot), /debug/pprof/* and /debug/vars (expvar).
// A nil src serves an empty exposition. Exposed separately so a host service
// can mount it under its own server.
func Handler(src Source) http.Handler {
	if src == nil {
		src = (*metrics.Registry)(nil)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = src.WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(src.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "mkp observability endpoint\n\n"+
			"/metrics       Prometheus text exposition\n"+
			"/metrics.json  JSON snapshot\n"+
			"/debug/pprof/  pprof profiles (go tool pprof)\n"+
			"/debug/vars    expvar\n")
	})
	return mux
}

// Addr returns the bound address, useful when Serve was given port 0.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down, waiting for in-flight requests (bounded) and
// for the serve goroutine to exit, so a solve that ends — normally or
// degraded — never leaks the listener.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}
