// Command sealserve is the multi-tenant encrypted-inference gateway: it
// serves models prepared with seal.Prepare over HTTP, with each
// tenant's weights sealed under a key derived from the gateway master
// key. Requests are admitted through a bounded queue (full queue →
// 429 + Retry-After), batched dynamically, and executed on one
// streaming secure engine per dispatcher worker, so clients send one
// sample per request while the accelerator sees wide batches.
//
// Usage:
//
//	sealserve -master-key $(openssl rand -hex 16)     # serve
//	sealserve -insecure-dev-key -preload vgg16        # local dev, fixed key
//	sealserve -bench-json                             # open-loop load sweep → BENCH_PR10.json
//
// The benchmark sweeps Poisson open-loop arrivals (-qps times each
// -sweep multiplier, -duration per point) against an in-process
// gateway on the raw-f32 content type, measuring latency from each
// request's scheduled arrival time so queueing delay is never hidden
// (no coordinated omission). It locates the saturation knee, checks
// every served logit vector bit-for-bit, and enforces the
// -min-throughput / -min-avg-batch goldens at the saturation point.
//
// The master key must be 32 hex characters (16 random bytes). The
// passphrase-derived dev key is accepted only behind -insecure-dev-key
// (and implicitly in -bench-json, which serves synthetic weights to an
// in-process client): seal.KeyFromString is unsalted and publicly
// computable, so a passphrase-rooted tenant hierarchy is only as strong
// as the passphrase.
//
// Endpoints:
//
//	GET    /healthz
//	GET    /v1/models
//	GET    /v1/stats
//	PUT    /v1/tenants/{tenant}/models/{model}        register / hot-swap
//	DELETE /v1/tenants/{tenant}/models/{model}        unregister
//	POST   /v1/tenants/{tenant}/models/{model}/infer  one sample per request
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"seal"
	"seal/internal/serve"
)

// Connection timeouts of the listening server. Without them a client
// that trickles its request headers (slowloris) or parks idle
// keep-alive connections holds a socket and a goroutine for as long as
// it likes. Only the header read and idle gaps are bounded: bodies are
// already capped in size by the gateway, and a whole-request deadline
// would also cut off honest clients on slow links.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		masterKey = flag.String("master-key", "", "hex-encoded 128-bit master key (32 hex chars); tenant keys are derived from it")
		devKey    = flag.Bool("insecure-dev-key", false, "serve with a fixed passphrase-derived key instead of -master-key (local development only; trivially brute-forceable)")
		preload   = flag.String("preload", "", "comma-separated architectures to register at startup under tenant \"public\"")
		scale     = flag.Float64("scale", 0.25, "channel-width multiplier for preloaded models")
		ratio     = flag.Float64("ratio", 0.5, "SE encryption ratio for preloaded models")
		seed      = flag.Uint64("seed", 42, "weight-initialization seed for preloaded models")

		queue   = flag.Int("queue", serve.DefaultQueueDepth, "per-model admission queue depth")
		maxB    = flag.Int("max-batch", serve.DefaultMaxBatch, "dynamic batch size cap")
		window  = flag.Duration("batch-window", serve.DefaultBatchWindow, "how long the batcher waits to widen a batch")
		workers = flag.Int("workers", 0, "secure engines per model (0 = size from SEAL_WORKERS/CPU)")

		benchJSON = flag.Bool("bench-json", false, "run the open-loop serving benchmark, write the JSON report and exit")
		benchOut  = flag.String("bench-out", "BENCH_PR10.json", "output path for -bench-json")
		qps       = flag.Float64("qps", 100, "base offered load for -bench-json; sweep points are multiples of it")
		duration  = flag.Duration("duration", 3*time.Second, "measurement window per sweep point for -bench-json")
		sweep     = flag.String("sweep", "0.5,1,2,6", "comma-separated offered-load multipliers of -qps for -bench-json, ascending")

		minThroughput = flag.Float64("min-throughput", 0, "golden gate: fail -bench-json if saturation throughput is below this QPS (0 = no gate)")
		minAvgBatch   = flag.Float64("min-avg-batch", 0, "golden gate: fail -bench-json if avg batch at saturation is below this (0 = no gate)")
	)
	flag.Parse()

	// The bench serves deterministic synthetic weights to an in-process
	// client, so the fixed dev key is fine there; real serving demands a
	// full-entropy key unless the operator opts into the insecure one.
	key, err := resolveMasterKey(*masterKey, *devKey || *benchJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sealserve: %v\n", err)
		os.Exit(1)
	}

	cfg := serve.Config{
		MasterKey:   key,
		QueueDepth:  *queue,
		MaxBatch:    *maxB,
		BatchWindow: *window,
		Workers:     *workers,
	}

	if *benchJSON {
		mults, err := parseSweep(*sweep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sealserve: -sweep: %v\n", err)
			os.Exit(1)
		}
		os.Exit(runBenchJSON(*benchOut, cfg, benchParams{
			arch: firstArch(*preload), scale: *scale, ratio: *ratio, seed: *seed,
			qps: *qps, duration: *duration, sweep: mults,
			minThroughput: *minThroughput, minAvgBatch: *minAvgBatch,
		}))
	}

	gw := serve.New(cfg)
	for _, name := range splitList(*preload) {
		spec := serve.ModelSpec{Arch: name, Scale: *scale, Ratio: ratio, Seed: *seed}
		info, err := gw.Registry().Register("public", name, spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sealserve: preload %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("sealserve: registered public/%s (%s scale %.3g, %.0f%% weights encrypted, %d workers)\n",
			name, info.Arch, info.Scale, info.WeightEncFraction*100, info.Workers)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "sealserve: shutting down...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx) // stop accepting, drain HTTP
		gw.Close()                    // then drain the dispatcher workers
	}()

	fmt.Printf("sealserve: listening on %s (queue %d, max batch %d, window %s)\n",
		*addr, *queue, *maxB, *window)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "sealserve: %v\n", err)
		os.Exit(1)
	}
	// ListenAndServe returns the instant Shutdown is called; in-flight
	// requests and the dispatcher workers are still draining in the
	// signal goroutine, so graceful shutdown means waiting for it to
	// finish.
	<-drained
}

// resolveMasterKey turns the -master-key flag into a seal.Key: 32 hex
// characters of full-entropy key material, or — only when allowDev is
// set (-insecure-dev-key, or bench mode) — the fixed passphrase-derived
// development key.
func resolveMasterKey(hexKey string, allowDev bool) (seal.Key, error) {
	if hexKey != "" {
		raw, err := hex.DecodeString(hexKey)
		if err != nil {
			return seal.Key{}, fmt.Errorf("-master-key: %v (want 32 hex characters)", err)
		}
		return seal.NewKey(raw)
	}
	if allowDev {
		return seal.KeyFromString("sealserve dev master key"), nil
	}
	return seal.Key{}, errors.New("-master-key is required: 32 hex characters of random key material (e.g. `openssl rand -hex 16`); pass -insecure-dev-key to serve with the fixed dev key locally")
}

// parseSweep parses the -sweep multiplier list.
func parseSweep(s string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad multiplier %q (want positive numbers)", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// firstArch picks the benchmark architecture: the first preloaded name,
// or vgg16.
func firstArch(preload string) string {
	if names := splitList(preload); len(names) > 0 {
		return names[0]
	}
	return "vgg16"
}
