// Command exlserve runs the EXLEngine multi-tenant HTTP server.
//
// Usage:
//
//	exlserve [-addr :8080] [-data-dir DIR] [-max-concurrent N]
//	         [-mem-budget BYTES] [-session-idle-timeout DUR] [-incremental]
//
// -incremental makes every run delta-driven by default: only cubes whose
// inputs changed since their last computation are recomputed, the chase
// applying the store's deltas to their previous versions wherever it has
// both (see engine.WithIncremental for the exactness contract).
// Individual requests can also opt in per run with "incremental": true.
//
// With -data-dir every tenant is durable: its cube store lives under
// DIR/<tenant> (write-ahead log + segment snapshots) and survives idle
// eviction and process restarts. Without it tenants are in-memory.
//
// -max-concurrent and -mem-budget configure each tenant's admission
// governor: up to -max-concurrent runs execute, four times as many wait
// in a FIFO queue, and the rest are shed with typed 429/503 responses
// rather than degrading everyone. A run's fragments run in waves, the
// independent ones concurrently.
//
// SIGINT/SIGTERM trigger a graceful shutdown: HTTP stops accepting,
// in-flight runs drain, and durable stores flush and close — every
// acked commit is on disk when the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"exlengine/internal/cli"
	"exlengine/server"
)

func main() {
	var (
		addr = flag.String("addr", ":8080", "listen address")
		// -data-dir, not the shared -store: the one-shot tools open one
		// store at the directory, the server opens one per tenant under it.
		dataDir     = flag.String("data-dir", "", "durable tenant root (state lives under DIR/<tenant>); empty = in-memory tenants")
		idleTimeout = flag.Duration("session-idle-timeout", 5*time.Minute, "evict sessions idle this long")
		authTokens  = flag.String("auth-tokens", "", "comma-separated token=tenant pairs (tenant * = any); empty allows all")
		incremental = flag.Bool("incremental", false, "delta-driven recomputation by default: runs recompute only stale cubes, from the deltas of their inputs")
		// Only the server takes concurrent runs, so only it has the flag.
		maxConcurrent = flag.Int("max-concurrent", 0, "maximum concurrently executing runs per tenant (0 = unlimited)")
	)
	shared := &cli.Flags{}
	shared.RegisterGovernor(flag.CommandLine)
	flag.Parse()

	cfg := server.Config{
		Addr:               *addr,
		DataDir:            *dataDir,
		MaxConcurrent:      *maxConcurrent,
		MemBudget:          shared.MemBudget,
		SessionIdleTimeout: *idleTimeout,
		Incremental:        *incremental,
	}
	if *authTokens != "" {
		auth, err := parseTokens(*authTokens)
		if err != nil {
			log.Fatalf("exlserve: %v", err)
		}
		cfg.Auth = auth
	}

	srv := server.New(cfg)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		log.Printf("exlserve: listening on %s (data-dir=%q)", cfg.Addr, cfg.DataDir)
		done <- srv.ListenAndServe()
	}()

	select {
	case err := <-done:
		if err != nil {
			log.Fatalf("exlserve: %v", err)
		}
	case s := <-sig:
		log.Printf("exlserve: %v, shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("exlserve: shutdown: %v", err)
		}
	}
}

// parseTokens builds a StaticTokens table from "tok1=tenantA,tok2=*".
func parseTokens(s string) (server.StaticTokens, error) {
	auth := server.StaticTokens{}
	for _, pair := range strings.Split(s, ",") {
		if pair == "" {
			continue
		}
		tok, tenant, ok := strings.Cut(pair, "=")
		if !ok || tok == "" || tenant == "" {
			return nil, fmt.Errorf("bad -auth-tokens entry %q (want token=tenant)", pair)
		}
		auth[tok] = append(auth[tok], tenant)
	}
	return auth, nil
}
