package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/obs"
)

// traceOptions carries the -trace-* flags into either process role.
type traceOptions struct {
	buffer int
	sample int
	slow   time.Duration
}

// recorder builds the flight recorder the options describe, or nil
// when -trace-buffer 0 disables recording.
func (o traceOptions) recorder() *obs.Recorder {
	if o.buffer <= 0 {
		return nil
	}
	return obs.NewRecorder(obs.RecorderOptions{Capacity: o.buffer, SampleEvery: o.sample})
}

// runRouter is -mode=router: the process becomes a consistent-hash
// reverse proxy over the -replicas fleet instead of a compiler. Requests
// are keyed router-side with the same content address the replicas
// cache under (routerRequestKey, via engine.RequestKey), so identical circuits land on one
// replica and keep single-flight coalescing; replica health and queue
// pressure come from polling each replica's /v2/stats, and traffic
// spills to the second shard on the ring when its home is down or
// shedding. The router's own GET /metrics exposes the ssync_cluster_*
// families, and GET /cluster/stats the fleet snapshot.
func runRouter(addr, replicaList string, drain time.Duration, aopt authOptions, topt traceOptions, logger *slog.Logger) error {
	var urls []string
	for _, u := range strings.Split(replicaList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("-mode=router needs -replicas (comma-separated base URLs)")
	}
	reg := obs.NewRegistry()
	rec := topt.recorder()
	router, err := cluster.New(cluster.Options{
		Replicas:     urls,
		KeyFn:        routerRequestKey,
		Logger:       logger,
		Registry:     reg,
		MaxBodyBytes: maxRequestBytes,
		Recorder:     rec,
	})
	if err != nil {
		return err
	}
	defer router.Close()
	registerBuildInfo(reg, time.Now())
	registerTraceMetrics(reg, rec.Stats)
	// With access control on, the router is the fleet's authentication
	// edge: API keys are checked and quota-admitted here, stripped from
	// the proxied request, and the resolved identity travels to replicas
	// as a signed internal header.
	var handler http.Handler = router
	if aopt.enabled() {
		al, err := newAuthLayer(aopt, reg, logger)
		if err != nil {
			return err
		}
		if al.signer == nil {
			logger.Warn("auth-keys set without -cluster-secret: replicas will see authenticated traffic as anonymous")
		}
		handler = al.edgeGuard(router)
	}
	// The trace edge wraps the auth edge, so the router's own spans —
	// auth.admit, cluster.key, every cluster.forward attempt — land in
	// one trace whose ID travels to the chosen replica via traceparent.
	handler = edgeInstrument(logger, rec, topt.slow, handler)
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Printf("ssyncd router listening on %s (replicas=%s)\n", ln.Addr(), strings.Join(urls, ","))
	if err := serve(ctx, hs, ln, drain); err != nil {
		return err
	}
	fmt.Println("ssyncd router drained and stopped")
	return nil
}
