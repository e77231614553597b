package serve

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"superfe/internal/apps"
	"superfe/internal/core"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/trace"
)

// histHog is a compilable but planvet-infeasible candidate: a 512-bin
// histogram is 2 KiB of per-group state — four DMA bursts past the
// nic-bus single-burst limit — so the reload gate must reject it.
func histHog() *policy.Policy {
	return policy.New("HistHog").
		GroupBy(flowkey.GranHost).
		Reduce("size", policy.RFHist(64, 512)).
		Collect().
		MustBuild()
}

// testResolve extends the catalog resolver with the infeasible
// candidate, so reload tests can request it by name.
func testResolve(name string) (*policy.Policy, error) {
	if name == "HistHog" {
		return histHog(), nil
	}
	return ResolveCatalog(name)
}

// startServer deploys the named tenants and serves the ingest
// protocol on a fresh unix socket. Shutdown and cleanup ride on
// t.Cleanup.
func startServer(t *testing.T, cfg Config, tenants ...[2]string) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	for _, tn := range tenants {
		if _, report, err := srv.StartTenant(tn[0], tn[1], 0); err != nil {
			t.Fatalf("StartTenant(%s, %s): %v\n%s", tn[0], tn[1], err, report)
		}
	}
	dir, err := os.MkdirTemp("", "sfe")
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(dir, "ingest.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint — returns ErrServerClosed at shutdown
	t.Cleanup(func() {
		srv.Shutdown()
		os.RemoveAll(dir)
	})
	return srv, sock
}

// collector drains a subscribed client on its own goroutine until the
// stream errors (server shutdown or connection close).
type collector struct {
	mu   sync.Mutex
	vecs []feature.Vector
	done chan struct{}
}

func collect(c *Client) *collector {
	col := &collector{done: make(chan struct{})}
	go func() {
		defer close(col.done)
		for {
			v, err := c.NextVector()
			if err != nil {
				return
			}
			col.mu.Lock()
			col.vecs = append(col.vecs, v)
			col.mu.Unlock()
		}
	}()
	return col
}

// snapshot returns the vectors received so far.
func (col *collector) snapshot() []feature.Vector {
	col.mu.Lock()
	defer col.mu.Unlock()
	return append([]feature.Vector(nil), col.vecs...)
}

// await polls until n vectors have arrived or the deadline passes.
func (col *collector) await(t *testing.T, n int) []feature.Vector {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		vecs := col.snapshot()
		if len(vecs) >= n {
			return vecs
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d vectors (have %d)", n, len(vecs))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wireMultiset reduces vectors to a multiset keyed by their exact
// wire encoding — the "byte-identical per-tenant GPV multisets" the
// isolation contract promises.
func wireMultiset(vecs []feature.Vector) map[string]int {
	ms := make(map[string]int, len(vecs))
	for i := range vecs {
		ms[string(AppendVector(nil, &vecs[i]))]++
	}
	return ms
}

// referenceRun extracts the trace on an independent single-tenant
// engine with the service's deployment shape and returns its vectors.
func referenceRun(t *testing.T, pol *policy.Policy, tr *trace.Trace, workers int) []feature.Vector {
	t.Helper()
	var vecs []feature.Vector
	opts := core.DefaultParallelOptions()
	opts.Workers = workers
	e, err := core.NewParallel(opts, pol, feature.Collect(&vecs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		e.Process(&tr.Packets[i])
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return vecs
}

// sendTrace streams the trace to the tenant in fixed-size batches and
// flushes.
func sendTrace(t *testing.T, sock, tenant string, pkts []packet.Packet, batch int) {
	t.Helper()
	c, err := Dial("unix", sock, tenant)
	if err != nil {
		t.Fatalf("dial %s: %v", tenant, err)
	}
	defer c.Close()
	for off := 0; off < len(pkts); off += batch {
		end := off + batch
		if end > len(pkts) {
			end = len(pkts)
		}
		if err := c.SendPackets(pkts[off:end]); err != nil {
			t.Fatalf("send %s: %v", tenant, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush %s: %v", tenant, err)
	}
}

// TestServiceTwoTenantIsolation is the tenancy contract: two tenants
// served concurrently over one socket produce byte-identical
// per-tenant vector multisets to two independent single-tenant batch
// runs on the same fixed-seed traces.
func TestServiceTwoTenantIsolation(t *testing.T) {
	_, sock := startServer(t, Config{Workers: 2},
		[2]string{"alpha", "NPOD"}, [2]string{"beta", "Kitsune"})

	cfgA := trace.EnterpriseConfig
	cfgA.Flows = 160
	trA := trace.Generate(cfgA, 5)
	cfgB := trace.CampusConfig
	cfgB.Flows = 160
	trB := trace.Generate(cfgB, 9)

	refA := referenceRun(t, apps.NPOD(), trA, 2)
	refB := referenceRun(t, apps.Kitsune(), trB, 2)

	subscribe := func(tenant string) (*Client, *collector) {
		c, err := Dial("unix", sock, tenant)
		if err != nil {
			t.Fatalf("dial %s: %v", tenant, err)
		}
		if err := c.Subscribe(); err != nil {
			t.Fatalf("subscribe %s: %v", tenant, err)
		}
		return c, collect(c)
	}
	subA, colA := subscribe("alpha")
	defer subA.Close()
	subB, colB := subscribe("beta")
	defer subB.Close()

	// Concurrent live ingestion: both tenants fed at once, in
	// different batch sizes so the hand-off patterns differ.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sendTrace(t, sock, "alpha", trA.Packets, 97)
	}()
	go func() {
		defer wg.Done()
		sendTrace(t, sock, "beta", trB.Packets, 61)
	}()
	wg.Wait()

	gotA := colA.await(t, len(refA))
	gotB := colB.await(t, len(refB))
	if len(gotA) != len(refA) || len(gotB) != len(refB) {
		t.Fatalf("vector counts: alpha %d/%d, beta %d/%d", len(gotA), len(refA), len(gotB), len(refB))
	}
	msA, msB := wireMultiset(gotA), wireMultiset(refA)
	for k, n := range msB {
		if msA[k] != n {
			t.Fatalf("alpha multiset diverges from the single-tenant reference")
		}
	}
	msA, msB = wireMultiset(gotB), wireMultiset(refB)
	for k, n := range msB {
		if msA[k] != n {
			t.Fatalf("beta multiset diverges from the single-tenant reference")
		}
	}
}

// ackStallConn is the server side of a connection whose next Write,
// once armed, delivers its bytes and then stalls until release closes
// (or a grace period passes) — it stretches the instant between "the
// peer has the subscribe ack" and "the handler moves on".
type ackStallConn struct {
	net.Conn
	armed   atomic.Bool
	release chan struct{}
}

func (c *ackStallConn) Write(b []byte) (int, error) {
	// Decide before writing: the test arms only after it has read the
	// previous frame, so this cannot catch an earlier write's tail.
	stall := c.armed.CompareAndSwap(true, false)
	n, err := c.Conn.Write(b)
	if stall {
		select {
		case <-c.release:
		case <-time.After(200 * time.Millisecond):
		}
	}
	return n, err
}

// TestSubscribeAckIsRegistration pins the subscription handshake: the
// FrameOK that Subscribe waits for is written in the same critical
// section that registers the subscriber, so every vector emitted
// after Subscribe returns reaches it. The peer subscribes and, with
// the handler held inside its ack write, ingests and flushes at once.
// A handler that registers only after the ack lets that whole flush
// run against an empty subscriber set and loses every vector; one that
// acks under the fan-out lock holds the flush's first emit until the
// registration is in.
func TestSubscribeAckIsRegistration(t *testing.T) {
	srv := New(Config{Workers: 1})
	t.Cleanup(func() { srv.Shutdown() })
	ten, _, err := srv.StartTenant("sub", "NPOD", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.EnterpriseConfig
	cfg.Flows = 40
	tr := trace.Generate(cfg, 3)
	want := len(referenceRun(t, apps.NPOD(), tr, 1))
	if want == 0 {
		t.Fatal("reference run emitted no vectors")
	}

	cli, srvSide := net.Pipe()
	stall := &ackStallConn{Conn: srvSide, release: make(chan struct{})}
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		srv.handleConn(stall)
	}()
	c := &Client{conn: cli, bw: bufio.NewWriter(cli), fr: gpv.NewFrameReader(bufio.NewReader(cli))}
	defer func() {
		c.Close()
		<-handled
	}()
	if err := c.send(FrameHello, []byte("sub")); err != nil {
		t.Fatal(err)
	}
	if err := c.awaitOK(); err != nil {
		t.Fatal(err)
	}

	stall.armed.Store(true)
	if err := c.Subscribe(); err != nil {
		t.Fatal(err)
	}
	col := collect(c)
	if err := ten.Ingest(tr.Packets); err != nil {
		t.Fatal(err)
	}
	if err := ten.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stall.release)
	if got := len(col.await(t, want)); got != want {
		t.Fatalf("subscriber received %d vectors, want %d", got, want)
	}
}

// TestHotReloadMidIngestRace reloads a tenant's policy while packets
// stream in (the CI service-smoke job runs this under -race). The
// output stream must be a clean prefix of old-plan vectors followed
// by new-plan vectors — never a torn batch — and every sent packet
// must be accounted for.
func TestHotReloadMidIngestRace(t *testing.T) {
	srv, sock := startServer(t, Config{Workers: 2}, [2]string{"hot", "NPOD"})
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	cfg := trace.EnterpriseConfig
	cfg.Flows = 240
	tr := trace.Generate(cfg, 13)
	oldDim, newDim := apps.NPOD().FeatureDim(), apps.Kitsune().FeatureDim()
	if oldDim == newDim {
		t.Fatal("test needs plans with distinct feature dimensions")
	}

	sub, err := Dial("unix", sock, "hot")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(); err != nil {
		t.Fatal(err)
	}
	col := collect(sub)

	// Stream the trace on one goroutine, signalling the halfway mark;
	// the reload lands concurrently with the second half.
	half := make(chan struct{})
	ingDone := make(chan error, 1)
	go func() {
		c, err := Dial("unix", sock, "hot")
		if err != nil {
			ingDone <- err
			return
		}
		defer c.Close()
		const batch = 64
		signalled := false
		for off := 0; off < len(tr.Packets); off += batch {
			end := off + batch
			if end > len(tr.Packets) {
				end = len(tr.Packets)
			}
			if err := c.SendPackets(tr.Packets[off:end]); err != nil {
				ingDone <- err
				return
			}
			if !signalled && off >= len(tr.Packets)/2 {
				signalled = true
				close(half)
			}
		}
		if !signalled {
			close(half)
		}
		ingDone <- c.Flush()
	}()

	<-half
	resp, err := http.Post(admin.URL+"/tenants/hot/reload", "application/json",
		strings.NewReader(`{"policy": "Kitsune"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if err := <-ingDone; err != nil {
		t.Fatalf("ingest: %v", err)
	}

	// Post-reload packets are definitely extracted under the new plan.
	tail := trace.Generate(cfg, 14)
	sendTrace(t, sock, "hot", tail.Packets[:500], 64)

	ten, _ := srv.Tenant("hot")
	if got := ten.Info().Pkts; got != uint64(len(tr.Packets)+500) {
		t.Fatalf("tenant accounted %d packets, want %d", got, len(tr.Packets)+500)
	}
	if got := ten.Policy(); got != "Kitsune" {
		t.Fatalf("tenant policy = %q after reload", got)
	}

	// Shut down so the subscriber stream ends, then check the split.
	srv.Shutdown()
	<-col.done
	vecs := col.snapshot()
	if len(vecs) == 0 {
		t.Fatal("no vectors reached the subscriber")
	}
	split := len(vecs)
	for i, v := range vecs {
		if len(v.Values) == newDim {
			split = i
			break
		}
	}
	if split == len(vecs) {
		t.Fatal("no new-plan vectors in the stream despite a tail of post-reload packets")
	}
	for i, v := range vecs {
		want := oldDim
		if i >= split {
			want = newDim
		}
		if len(v.Values) != want {
			t.Fatalf("vector %d has dim %d, want %d — torn reload (split at %d)", i, len(v.Values), want, split)
		}
	}
}

// TestReloadRejectedLeavesLivePlan is the deployment-gate contract: a
// planvet-infeasible candidate is rejected with the cost report — the
// findings name the violated resource — and the live plan keeps
// serving untouched.
func TestReloadRejectedLeavesLivePlan(t *testing.T) {
	srv, sock := startServer(t, Config{Workers: 2, Resolve: testResolve}, [2]string{"prod", "NPOD"})
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	cfg := trace.EnterpriseConfig
	cfg.Flows = 60
	tr := trace.Generate(cfg, 21)

	sub, err := Dial("unix", sock, "prod")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(); err != nil {
		t.Fatal(err)
	}
	col := collect(sub)

	sendTrace(t, sock, "prod", tr.Packets[:len(tr.Packets)/2], 64)
	before := len(col.await(t, 1))

	resp, err := http.Post(admin.URL+"/tenants/prod/reload", "application/json",
		strings.NewReader(`{"policy": "HistHog"}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("rejected reload status = %d, body:\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "nic-bus") || !strings.Contains(body, "INFEASIBLE") {
		t.Fatalf("rejection body does not carry the planvet findings:\n%s", body)
	}

	ten, _ := srv.Tenant("prod")
	if got := ten.Policy(); got != "NPOD" {
		t.Fatalf("live policy = %q after rejected reload, want NPOD", got)
	}
	info := ten.Info()
	if info.RejectedReloads != 1 || info.Reloads != 0 {
		t.Fatalf("reload counters = %d accepted / %d rejected, want 0/1", info.Reloads, info.RejectedReloads)
	}

	// The live plan keeps extracting: more packets still come out with
	// the old plan's dimension.
	sendTrace(t, sock, "prod", tr.Packets[len(tr.Packets)/2:], 64)
	vecs := col.await(t, before+1)
	oldDim := apps.NPOD().FeatureDim()
	for i, v := range vecs {
		if len(v.Values) != oldDim {
			t.Fatalf("vector %d has dim %d after rejected reload, want %d", i, len(v.Values), oldDim)
		}
	}
}

// TestAdminSurface walks the lifecycle endpoints: listing, per-tenant
// status with the tenant tag, tenant-scoped telemetry, runtime create
// and stop.
func TestAdminSurface(t *testing.T) {
	srv, sock := startServer(t, Config{Workers: 2}, [2]string{"alpha", "NPOD"})
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	cfg := trace.EnterpriseConfig
	cfg.Flows = 40
	tr := trace.Generate(cfg, 2)
	sendTrace(t, sock, "alpha", tr.Packets, 64)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readAll(t, resp)
	}

	if code, body := get("/tenants"); code != http.StatusOK ||
		!strings.Contains(body, `"name": "alpha"`) || !strings.Contains(body, `"policy": "NPOD"`) {
		t.Fatalf("GET /tenants = %d:\n%s", code, body)
	}
	if code, body := get("/tenants/alpha"); code != http.StatusOK ||
		!strings.Contains(body, `"tenant": "alpha"`) || !strings.Contains(body, `"health": "healthy"`) {
		t.Fatalf("GET /tenants/alpha = %d:\n%s", code, body)
	}
	if code, _ := get("/tenants/ghost"); code != http.StatusNotFound {
		t.Fatalf("GET /tenants/ghost = %d, want 404", code)
	}
	if code, body := get("/tenants/alpha/obs/metrics"); code != http.StatusOK ||
		!strings.Contains(body, `tenant="alpha"`) {
		t.Fatalf("GET /tenants/alpha/obs/metrics = %d (want tenant label):\n%s", code, body)
	}
	// Every engine view is served from its barrier cache, so the tenant
	// subtree exposes all of them, not a hand-picked subset.
	for _, path := range []string{"timelines.json", "series.csv", "spans", "flightrecorder", "snapshot"} {
		if code, body := get("/tenants/alpha/obs/" + path); code != http.StatusOK {
			t.Fatalf("GET /tenants/alpha/obs/%s = %d:\n%s", path, code, body)
		}
	}
	if code, body := get("/status"); code != http.StatusOK || !strings.Contains(body, `"tenants": 1`) {
		t.Fatalf("GET /status = %d:\n%s", code, body)
	}

	// Runtime tenant creation, then stop.
	resp, err := http.Post(admin.URL+"/tenants", "application/json",
		strings.NewReader(`{"name": "beta", "policy": "Kitsune"}`))
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /tenants = %d:\n%s", resp.StatusCode, body)
	}
	if _, ok := srv.Tenant("beta"); !ok {
		t.Fatal("created tenant not in registry")
	}
	resp, err = http.Post(admin.URL+"/tenants/beta/stop", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /tenants/beta/stop = %d:\n%s", resp.StatusCode, body)
	}
	if _, ok := srv.Tenant("beta"); ok {
		t.Fatal("stopped tenant still in registry")
	}
	if code, body := get("/status"); code != http.StatusOK || !strings.Contains(body, `"tenants": 1`) {
		t.Fatalf("GET /status after stop = %d:\n%s", code, body)
	}
}

// TestTenantStoppedOperations pins the post-Stop contract.
func TestTenantStoppedOperations(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 1}, [2]string{"solo", "PeerShark"})
	ten, _ := srv.Tenant("solo")
	if err := srv.StopTenant("solo"); err != nil {
		t.Fatal(err)
	}
	if err := ten.Ingest([]packet.Packet{{}}); err != ErrTenantStopped {
		t.Errorf("Ingest after stop: %v", err)
	}
	if err := ten.Flush(); err != ErrTenantStopped {
		t.Errorf("Flush after stop: %v", err)
	}
	if _, err := ten.Reload("NPOD", apps.NPOD()); err != ErrTenantStopped {
		t.Errorf("Reload after stop: %v", err)
	}
	if err := ten.Stop(); err != ErrTenantStopped {
		t.Errorf("second Stop: %v", err)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
