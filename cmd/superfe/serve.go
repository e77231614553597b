package main

// The `superfe serve` and `superfe ingest` subcommands: the resident
// multi-tenant service mode (internal/serve) and its companion trace
// feeder. serve binds the streaming ingest listener and the admin
// HTTP surface, announces both on stderr, and drains gracefully on
// SIGTERM/SIGINT; ingest replays a bundled synthetic workload into a
// running server over the ingest protocol — the live-traffic stand-in
// for a mirror port.

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"superfe/internal/serve"
	"superfe/internal/trace"
)

// splitListen parses "unix:/path" or "tcp:host:port".
func splitListen(spec string) (network, addr string, err error) {
	network, addr, ok := strings.Cut(spec, ":")
	if !ok || (network != "unix" && network != "tcp") || addr == "" {
		return "", "", fmt.Errorf(`listen address %q: want "unix:/path" or "tcp:host:port"`, spec)
	}
	return network, addr, nil
}

// parseTenantSpec parses one "name=Policy[:workers]" element.
func parseTenantSpec(spec string) (name, pol string, workers int, err error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" || rest == "" {
		return "", "", 0, fmt.Errorf(`tenant spec %q: want "name=Policy[:workers]"`, spec)
	}
	pol = rest
	if p, w, ok := strings.Cut(rest, ":"); ok {
		n, err := strconv.Atoi(w)
		if err != nil || n <= 0 {
			return "", "", 0, fmt.Errorf("tenant spec %q: bad worker count %q", spec, w)
		}
		pol, workers = p, n
	}
	return name, pol, workers, nil
}

// runServe is the `superfe serve` entry point.
func runServe(args []string) int {
	fs := flag.NewFlagSet("superfe serve", flag.ExitOnError)
	listen := fs.String("listen", "tcp:127.0.0.1:0", `ingest listener, "unix:/path" or "tcp:host:port"`)
	adminAddr := fs.String("admin", "", "admin/telemetry HTTP address (e.g. 127.0.0.1:0); empty disables the surface")
	tenantsSpec := fs.String("tenants", "", `initial tenant set, comma-separated "name=Policy[:workers]" (policies from -list)`)
	workers := fs.Int("workers", 2, "default shards per tenant engine")
	fs.Parse(args)

	if *tenantsSpec == "" {
		fmt.Fprintln(os.Stderr, "superfe: serve: -tenants required (e.g. -tenants edge=NPOD,lab=Kitsune)")
		return 2
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "superfe: serve: -workers %d: want at least 1\n", *workers)
		return 2
	}
	srv := serve.New(serve.Config{Workers: *workers})
	for _, spec := range strings.Split(*tenantsSpec, ",") {
		name, pol, w, err := parseTenantSpec(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "superfe: serve:", err)
			return 2
		}
		_, report, err := srv.StartTenant(name, pol, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "superfe: serve: tenant %s: %v\n%s", name, err, report)
			return 1
		}
		fmt.Fprintf(os.Stderr, "superfe: serve: tenant %s serving %s\n", name, pol)
	}

	network, addr, err := splitListen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "superfe: serve:", err)
		return 2
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "superfe: serve:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "superfe: serve: ingest listening on %s %s\n", network, ln.Addr())

	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "superfe: serve:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "superfe: serve: admin listening on http://%s\n", aln.Addr())
		//superfe:goroutine-ok admin HTTP server: serves until Shutdown's process exit; the listener dies with the process
		go func() {
			if err := http.Serve(aln, srv.AdminHandler()); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "superfe: serve: admin:", err)
			}
		}()
	}

	//superfe:goroutine-ok ingest accept loop: exits with ErrServerClosed when Shutdown closes the listener below
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, serve.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "superfe: serve: listener:", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	n := len(srv.Tenants())
	if err := srv.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "superfe: serve: shutdown:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "superfe: serve: drained %d tenants; exiting\n", n)
	return 0
}

// runIngest is the `superfe ingest` entry point: generate a bundled
// workload and stream it into a running server.
func runIngest(args []string) int {
	fs := flag.NewFlagSet("superfe ingest", flag.ExitOnError)
	connect := fs.String("connect", "", `server ingest address, "unix:/path" or "tcp:host:port"`)
	tenant := fs.String("tenant", "", "tenant to feed")
	traceName := fs.String("trace", "enterprise", "workload: mawi, enterprise, campus, wfp, botnet, covert, mirai, osscan, ssdp")
	seed := fs.Int64("seed", 42, "trace generator seed")
	batch := fs.Int("batch", 256, "packets per ingest frame")
	flush := fs.Bool("flush", true, "send a flush barrier after the trace and wait for it")
	fs.Parse(args)

	if *connect == "" || *tenant == "" {
		fmt.Fprintln(os.Stderr, "superfe: ingest: -connect and -tenant required")
		return 2
	}
	if *batch < 1 {
		fmt.Fprintf(os.Stderr, "superfe: ingest: -batch %d: want at least 1\n", *batch)
		return 2
	}
	network, addr, err := splitListen(*connect)
	if err != nil {
		fmt.Fprintln(os.Stderr, "superfe: ingest:", err)
		return 2
	}
	tr, err := trace.Named(*traceName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "superfe: ingest:", err)
		return 2
	}
	c, err := serve.Dial(network, addr, *tenant)
	if err != nil {
		fmt.Fprintln(os.Stderr, "superfe: ingest:", err)
		return 1
	}
	defer c.Close()
	for off := 0; off < len(tr.Packets); off += *batch {
		end := off + *batch
		if end > len(tr.Packets) {
			end = len(tr.Packets)
		}
		if err := c.SendPackets(tr.Packets[off:end]); err != nil {
			fmt.Fprintln(os.Stderr, "superfe: ingest:", err)
			return 1
		}
	}
	if *flush {
		if err := c.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "superfe: ingest:", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "superfe: ingest: sent %d packets (%s) to tenant %s\n", len(tr.Packets), tr.Name, *tenant)
	return 0
}
