package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// publishOnce guards the expvar registration: expvar.Publish panics on
// duplicate names, and the debug server may be started more than once
// in a process's lifetime (tests).
var publishOnce sync.Once

// StartDebugServer serves the debug endpoint on addr:
//
//	/debug/pprof/...  the standard net/http/pprof handlers
//	/debug/vars       expvar (includes the registry as "vbench_metrics")
//	/debug/metrics    the registry's deterministic JSON snapshot
//
// It returns a shutdown function.
func StartDebugServer(addr string) (shutdown func() error, err error) {
	publishOnce.Do(func() {
		expvar.Publish("vbench_metrics", expvar.Func(func() interface{} {
			return Default.expvarValue()
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// A failed write means the HTTP client went away; there is
		// no caller to surface the error to.
		_ = Default.WriteJSON(w)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	// No WriteTimeout: /debug/pprof/profile and /debug/pprof/trace
	// stream for as long as their seconds argument asks.
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Serve returns ErrServerClosed once the stop function calls
	// Close; any earlier error just stops the optional endpoint.
	go func() { _ = srv.Serve(ln) }()
	return srv.Close, nil
}
