package main

// Service-mode smoke test: boot the real binary as `superfe serve`
// with two tenants on a unix socket, feed one of them with the
// `superfe ingest` subcommand and the other through the serve client
// library, scrape the admin surface for golden fragments, then send
// SIGTERM and assert a graceful drain with exit code 0.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"superfe/internal/serve"
	"superfe/internal/trace"
)

// startServeProc launches `superfe serve`, waits for the startup
// announce lines on stderr, and returns the ingest socket path, the
// admin base URL, and a function that collects the rest of stderr
// after the process exits.
func startServeProc(t *testing.T, tenants string) (cmd *exec.Cmd, sock, adminURL string, rest func() string) {
	t.Helper()
	dir, err := os.MkdirTemp("", "sfe")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	sock = filepath.Join(dir, "ingest.sock")

	cmd = exec.Command(superfeBin, "serve",
		"-listen", "unix:"+sock, "-admin", "127.0.0.1:0",
		"-tenants", tenants, "-workers", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// The announce lines are the first thing serve prints; read until
	// both listeners are up, then hand the pipe to a background drain.
	sc := bufio.NewScanner(stderr)
	var startup []string
	seenIngest := false
	for !seenIngest || adminURL == "" {
		if !sc.Scan() {
			t.Fatalf("serve exited during startup; stderr so far:\n%s", strings.Join(startup, "\n"))
		}
		line := sc.Text()
		startup = append(startup, line)
		if strings.Contains(line, "ingest listening") {
			seenIngest = true
		}
		if _, after, ok := strings.Cut(line, "admin listening on "); ok {
			adminURL = strings.TrimSpace(after)
		}
	}
	var mu sync.Mutex
	var tail bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
			mu.Lock()
			fmt.Fprintln(&tail, sc.Text())
			mu.Unlock()
		}
	}()
	rest = func() string {
		<-done
		mu.Lock()
		defer mu.Unlock()
		return strings.Join(startup, "\n") + "\n" + tail.String()
	}
	return cmd, sock, adminURL, rest
}

// adminGet scrapes one admin path and returns the body.
func adminGet(t *testing.T, adminURL, path string) string {
	t.Helper()
	resp, err := http.Get(adminURL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d:\n%s", path, resp.StatusCode, body)
	}
	return string(body)
}

func TestServeSmoke(t *testing.T) {
	cmd, sock, adminURL, rest := startServeProc(t, "edge=NPOD,lab=Kitsune")

	// Feed tenant edge through the ingest subcommand (the CLI path)…
	out, code := runCLI(t, "ingest", "-connect", "unix:"+sock, "-tenant", "edge",
		"-trace", "enterprise", "-seed", "5", "-batch", "100")
	if code != 0 {
		t.Fatalf("ingest exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "sent") || !strings.Contains(out, "tenant edge") {
		t.Errorf("ingest missing summary line:\n%s", out)
	}

	// …and tenant lab through the client library (the embedded path).
	tr := trace.Generate(trace.CampusConfig, 9)
	c, err := serve.Dial("unix", sock, "lab")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendPackets(tr.Packets); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Golden fragments from the admin surface: both tenants listed
	// with their policies and live packet counts, a healthy per-tenant
	// status, and the service rollup.
	tenantsBody := adminGet(t, adminURL, "/tenants")
	for _, frag := range []string{`"name": "edge"`, `"policy": "NPOD"`, `"name": "lab"`, `"policy": "Kitsune"`} {
		if !strings.Contains(tenantsBody, frag) {
			t.Errorf("/tenants missing %q:\n%s", frag, tenantsBody)
		}
	}
	edgeBody := adminGet(t, adminURL, "/tenants/edge")
	for _, frag := range []string{`"tenant": "edge"`, `"health": "healthy"`} {
		if !strings.Contains(edgeBody, frag) {
			t.Errorf("/tenants/edge missing %q:\n%s", frag, edgeBody)
		}
	}
	statusBody := adminGet(t, adminURL, "/status")
	for _, frag := range []string{`"tenants": 2`, `"tenant": "edge"`, `"tenant": "lab"`} {
		if !strings.Contains(statusBody, frag) {
			t.Errorf("/status missing %q:\n%s", frag, statusBody)
		}
	}

	// Graceful drain: SIGTERM must flush both tenants and exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("serve exited non-zero after SIGTERM: %v\n%s", err, rest())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("serve did not exit within 30s of SIGTERM:\n%s", rest())
	}
	stderrAll := rest()
	if !strings.Contains(stderrAll, "drained 2 tenants; exiting") {
		t.Errorf("missing drain message in stderr:\n%s", stderrAll)
	}
}

func TestServeRejectsInfeasibleTenant(t *testing.T) {
	// An unknown policy must fail fast at startup, before any listener
	// binds, with the resolver's error on stderr.
	out, code := runCLI(t, "serve", "-listen", "tcp:127.0.0.1:0", "-tenants", "edge=NoSuchPolicy")
	if code != 1 {
		t.Fatalf("unknown policy exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "NoSuchPolicy") {
		t.Errorf("error does not name the policy:\n%s", out)
	}
	if strings.Contains(out, "listening") {
		t.Errorf("listener bound despite startup failure:\n%s", out)
	}
}

func TestServeBadTenantSpecExitsTwo(t *testing.T) {
	out, code := runCLI(t, "serve", "-tenants", "justaname")
	if code != 2 {
		t.Fatalf("bad tenant spec exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "want \"name=Policy") {
		t.Errorf("missing spec usage hint:\n%s", out)
	}
}

func TestServeBadWorkersExitsTwo(t *testing.T) {
	out, code := runCLI(t, "serve", "-tenants", "edge=NPOD", "-workers", "-1")
	if code != 2 {
		t.Fatalf("-workers -1 exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "want at least 1") || strings.Contains(out, "listening") {
		t.Errorf("want a usage error before any listener binds:\n%s", out)
	}
}

func TestIngestBadBatchExitsTwo(t *testing.T) {
	// Rejected before dialing, so no server is needed: -batch 0 would
	// otherwise never advance, and a negative batch would slice past
	// its end.
	for _, batch := range []string{"0", "-4"} {
		out, code := runCLI(t, "ingest", "-connect", "unix:/nonexistent.sock", "-tenant", "edge", "-batch", batch)
		if code != 2 {
			t.Fatalf("-batch %s exited %d, want 2:\n%s", batch, code, out)
		}
		if !strings.Contains(out, "want at least 1") {
			t.Errorf("-batch %s: missing usage hint:\n%s", batch, out)
		}
	}
}
