package telemetry

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
)

// Options carries the telemetry command-line configuration shared by
// every binary (vbench, figures, uarchsim).
type Options struct {
	// TracePath, when set, installs a process-wide tracer and writes a
	// Chrome trace-event JSON file there at shutdown.
	TracePath string
	// MetricsPath, when set, writes the default registry's snapshot
	// there at shutdown.
	MetricsPath string
	// DebugAddr, when set, serves /debug/pprof, /debug/vars, and
	// /debug/metrics on the address for the life of the process.
	DebugAddr string
	// CPUProfilePath, when set, records a CPU profile (pprof format)
	// from Activate until flush.
	CPUProfilePath string
}

// RegisterFlags binds the standard telemetry flags on fs.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.TracePath, "trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto)")
	fs.StringVar(&o.MetricsPath, "metrics", "", "write a deterministic metrics snapshot JSON file")
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
	fs.StringVar(&o.CPUProfilePath, "cpuprofile", "", "write a CPU profile of the whole run to this file (read with go tool pprof)")
}

// Activate turns the requested telemetry on: it starts the CPU
// profile and the debug server, installs the tracer, and enables the
// codec stage clocks. On error nothing is left running. The returned
// flush stops the profile, writes the trace and metrics files and
// stops the debug server; call it once the run is complete.
func (o *Options) Activate() (flush func() error, err error) {
	var prof *os.File
	if o.CPUProfilePath != "" {
		if prof, err = os.Create(o.CPUProfilePath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			_ = prof.Close() // the start error takes precedence
			return nil, fmt.Errorf("telemetry: starting cpu profile: %w", err)
		}
	}
	var stopDebug func() error
	if o.DebugAddr != "" {
		stopDebug, err = StartDebugServer(o.DebugAddr)
		if err != nil {
			if prof != nil {
				pprof.StopCPUProfile()
				_ = prof.Close() // the server error takes precedence
			}
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "telemetry: debug endpoint on http://%s/debug/pprof\n", o.DebugAddr)
	}
	var tracer *Tracer
	if o.TracePath != "" {
		tracer = NewTracer()
		SetTracer(tracer)
	}
	if o.TracePath != "" || o.MetricsPath != "" {
		EnableStages(true)
	}
	return func() error {
		var first error
		if prof != nil {
			pprof.StopCPUProfile()
			first = prof.Close()
		}
		if tracer != nil {
			SetTracer(nil)
			if err := writeFile(o.TracePath, tracer.WriteChromeTrace); err != nil && first == nil {
				first = err
			}
		}
		if o.MetricsPath != "" {
			if err := writeFile(o.MetricsPath, Default.WriteJSON); err != nil && first == nil {
				first = err
			}
		}
		if stopDebug != nil {
			if err := stopDebug(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// writeFile streams write into a freshly created path.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error takes precedence
		return err
	}
	return f.Close()
}
