// Command pimserved runs PIM-as-a-service: an HTTP server that accepts
// recorded command streams (binary PIMB or JSON, auto-detected) on
// POST /v1/submit and replays each one on its own simulated device, drawn
// from a bounded pool. The response carries the session's modeled metrics,
// artifact report, per-command CSV, and fault counters — bit-identical to a
// local replay of the same stream.
//
//	pimserved -addr :8080 -devices 8
//	pimserved -devices 4 -queue 8 -rate 10 -burst 20
//
// Admission control: -devices caps concurrent replays, -queue bounds how
// many admitted requests may wait for a slot, and -rate/-burst impose
// per-tenant token-bucket quotas (tenants identify themselves with the
// X-PIM-Tenant header). Anything beyond those bounds is rejected with
// 429 + Retry-After. Aggregated simulation statistics and server gauges are
// served on /metrics (Prometheus text, or ?format=json); /healthz reports
// readiness. SIGINT/SIGTERM triggers a graceful drain: new sessions get
// 503, running replays finish, then the listener shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pimeval/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pimserved:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pimserved", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr    = fs.String("addr", "127.0.0.1:8080", "listen address")
		devices = fs.Int("devices", 4, "device slots (max concurrent replays)")
		queue   = fs.Int("queue", 0, "max requests waiting for a slot (0 = 2*devices, negative disables)")
		workers = fs.Int("workers", 1, "functional worker pool per session device")
		rate    = fs.Float64("rate", 0, "per-tenant sessions/sec quota (0 = unlimited)")
		burst   = fs.Int("burst", 0, "per-tenant burst (0 = max(1, ceil(rate)))")
		maxBody = fs.Int64("max-body", 0, "max stream size in bytes (0 = 1 GiB)")
		drain   = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline on shutdown")

		stateDir  = fs.String("state-dir", "", "durability directory: session journal + idempotency store (empty disables)")
		ckptEvery = fs.Int64("checkpoint-every", 0, "records between session checkpoints (0 = 4096, negative disables)")
		sessionTO = fs.Duration("session-timeout", 0, "per-session replay deadline (0 = none)")
		readTO    = fs.Duration("read-timeout", 5*time.Minute, "max time to read one request (slow-client bound, 0 = none)")
		headerTO  = fs.Duration("read-header-timeout", 10*time.Second, "max time to read request headers (slow-loris bound, 0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	cfg := server.Config{
		Devices:         *devices,
		Queue:           *queue,
		Workers:         *workers,
		TenantRate:      *rate,
		TenantBurst:     *burst,
		MaxBodyBytes:    *maxBody,
		Logger:          logger,
		StateDir:        *stateDir,
		CheckpointEvery: *ckptEvery,
		SessionTimeout:  *sessionTO,
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "pimserved listening on http://%s (devices %d, queue %d)\n",
		l.Addr(), *devices, *queue)
	return serve(ctx, l, cfg, *drain, *readTO, *headerTO)
}

// serve runs a server.New(cfg) on l until ctx is canceled, then drains
// in-flight sessions (bounded by drainTimeout) before closing the listener.
// With a state directory configured, journaled sessions from a previous
// instance are recovered before the listener starts accepting.
func serve(ctx context.Context, l net.Listener, cfg server.Config, drainTimeout, readTimeout, headerTimeout time.Duration) error {
	srv := server.New(cfg)
	if rs, err := srv.Recover(ctx); err != nil {
		return fmt.Errorf("recover journaled sessions: %w", err)
	} else if rs.Recovered > 0 || rs.Discarded > 0 {
		fmt.Fprintf(os.Stderr, "pimserved: recovered %d journaled sessions, discarded %d\n",
			rs.Recovered, rs.Discarded)
	}
	hs := &http.Server{
		Handler:           srv,
		ReadTimeout:       readTimeout,
		ReadHeaderTimeout: headerTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	derr := srv.Drain(dctx)
	serr := hs.Shutdown(dctx)
	if serr == http.ErrServerClosed {
		serr = nil
	}
	return errors.Join(derr, serr)
}
