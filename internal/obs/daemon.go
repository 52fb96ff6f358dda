package obs

import (
	"context"
	"errors"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"syscall"
	"time"
)

// Serve is the run loop of both daemons: serve h on addr until SIGINT
// or SIGTERM, then stop accepting and drain in-flight requests (bounded
// at 15s), so a fleet roll never truncates a scan mid-response or a PUT
// mid-body. It returns nil once drained — the caller then closes what
// it owns and logs its final counters — or the listener's error if the
// address cannot be served. pprofAddr, when set, starts the profiling
// side listener first.
func Serve(name, addr, pprofAddr string, h http.Handler) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if pprofAddr != "" {
		startPprof(name, pprofAddr)
	}
	hs := &http.Server{Addr: addr, Handler: h}
	errCh := make(chan error, 1) // the one send must not block a drained server
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("%s: serving on %s", name, addr)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process instead of being swallowed
	log.Printf("%s: shutdown signal; draining in-flight requests", name)
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Printf("%s: shutdown: %v", name, err)
	}
	return nil
}

// startPprof serves net/http/pprof on its own listener — never the main
// port, so profiling endpoints are reachable only where the operator
// points them (typically localhost).
func startPprof(name, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		log.Printf("%s: pprof on %s", name, addr)
		if err := http.ListenAndServe(addr, mux); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("%s: pprof: %v", name, err)
		}
	}()
}
