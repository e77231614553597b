package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
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
	err  error // what ended the stream; read after done
}

func collect(c *Client) *collector {
	col := &collector{done: make(chan struct{})}
	go func() {
		defer close(col.done)
		for {
			v, err := c.NextVector()
			if err != nil {
				col.err = err
				return
			}
			// NextVector reuses Values; the collector retains them.
			v.Values = append([]float64(nil), v.Values...)
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

// assertEgressBalanced checks the egress conservation identity, which
// holds whenever a Flush has returned and nothing else feeds the
// tenant: every (vector, subscriber) pair accepted into a backlog has
// been written or was discarded at a counted disconnect.
func assertEgressBalanced(t *testing.T, ten *Tenant) EgressStats {
	t.Helper()
	eg := ten.Info().Egress
	if eg.VectorsEnqueued != eg.VectorsWritten+eg.VectorsDiscarded {
		t.Errorf("tenant %s egress out of balance after Flush: enqueued %d != written %d + discarded %d",
			ten.Name(), eg.VectorsEnqueued, eg.VectorsWritten, eg.VectorsDiscarded)
	}
	return eg
}

// sendTrace streams the trace to the tenant in fixed-size batches and
// flushes; it is the tenant's only feeder in every test that uses it,
// so the egress must balance when the Flush returns.
func sendTrace(t *testing.T, srv *Server, sock, tenant string, pkts []packet.Packet, batch int) {
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
	if ten, ok := srv.Tenant(tenant); ok {
		assertEgressBalanced(t, ten)
	}
}

// TestServiceTwoTenantIsolation is the tenancy contract: two tenants
// served concurrently over one socket produce byte-identical
// per-tenant vector multisets to two independent single-tenant batch
// runs on the same fixed-seed traces.
func TestServiceTwoTenantIsolation(t *testing.T) {
	srv, sock := startServer(t, Config{Workers: 2},
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
		sendTrace(t, srv, sock, "alpha", trA.Packets, 97)
	}()
	go func() {
		defer wg.Done()
		sendTrace(t, srv, sock, "beta", trB.Packets, 61)
	}()
	wg.Wait()

	gotA := colA.await(t, len(refA))
	gotB := colB.await(t, len(refB))
	if !sameMultiset(gotA, refA) {
		t.Fatalf("alpha's %d vectors diverge from the single-tenant reference's %d", len(gotA), len(refA))
	}
	if !sameMultiset(gotB, refB) {
		t.Fatalf("beta's %d vectors diverge from the single-tenant reference's %d", len(gotB), len(refB))
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
	c := newClient(cli)
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

// TestProtocolErrorsAnswerAndClose: every frame the protocol does not
// allow where it arrives is answered with a FrameError naming the
// fault — through the subscriber's backlog once the connection has
// subscribed — and then the server closes the connection.
func TestProtocolErrorsAnswerAndClose(t *testing.T) {
	_, sock := startServer(t, Config{Workers: 1}, [2]string{"edge", "NPOD"})
	type frame struct {
		kind    uint8
		payload []byte
	}
	hello := frame{FrameHello, []byte("edge")}
	for _, tc := range []struct {
		name   string
		frames []frame // each answered FrameOK, except the last
		want   string
	}{
		{"no hello", []frame{{FrameFlush, nil}}, "expected hello frame"},
		{"unknown tenant", []frame{{FrameHello, []byte("ghost")}}, "unknown tenant"},
		{"server-only kind", []frame{hello, {FrameVector, nil}}, "unexpected frame kind"},
		{"ragged packet batch", []frame{hello, {FramePackets, make([]byte, PacketWireBytes+1)}}, ErrPacketPayload.Error()},
		{"second subscribe", []frame{hello, {FrameSubscribe, nil}, {FrameSubscribe, nil}}, "already subscribed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			c := newClient(conn)
			for i, f := range tc.frames {
				if err := c.send(f.kind, f.payload); err != nil {
					t.Fatal(err)
				}
				err := c.awaitOK()
				if i < len(tc.frames)-1 {
					if err != nil {
						t.Fatalf("frame %d (kind %d): %v", i, f.kind, err)
					}
					continue
				}
				if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("answer = %v, want ErrRemote naming %q", err, tc.want)
				}
			}
			if _, _, err := c.fr.Next(); err != io.EOF {
				t.Fatalf("after the error frame: %v, want the connection closed", err)
			}
		})
	}
}

// TestHotReloadMidIngestRace reloads a tenant's policy while packets
// stream in (CI runs it under -race). The output stream must be a
// clean prefix of old-plan vectors followed by new-plan vectors —
// never a torn batch — and every sent packet must be accounted for.
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
	sendTrace(t, srv, sock, "hot", tail.Packets[:500], 64)

	ten, _ := srv.Tenant("hot")
	if got := ten.Info().Pkts; got != uint64(len(tr.Packets)+500) {
		t.Fatalf("tenant accounted %d packets, want %d", got, len(tr.Packets)+500)
	}
	if got := ten.Info().Policy; got != "Kitsune" {
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

	sendTrace(t, srv, sock, "prod", tr.Packets[:len(tr.Packets)/2], 64)
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
	if got := ten.Info().Policy; got != "NPOD" {
		t.Fatalf("live policy = %q after rejected reload, want NPOD", got)
	}
	info := ten.Info()
	if info.RejectedReloads != 1 || info.Reloads != 0 {
		t.Fatalf("reload counters = %d accepted / %d rejected, want 0/1", info.Reloads, info.RejectedReloads)
	}

	// The live plan keeps extracting: more packets still come out with
	// the old plan's dimension.
	sendTrace(t, srv, sock, "prod", tr.Packets[len(tr.Packets)/2:], 64)
	vecs := col.await(t, before+1)
	oldDim := apps.NPOD().FeatureDim()
	for i, v := range vecs {
		if len(v.Values) != oldDim {
			t.Fatalf("vector %d has dim %d after rejected reload, want %d", i, len(v.Values), oldDim)
		}
	}
}

// TestReloadRacingIngest: a reload, accepted and rejected alike, runs
// beside 32 concurrent one-packet ingests and a Flush, all contending
// for the tenant lock. Every call returns, every packet is counted, and
// a later Flush still goes through.
func TestReloadRacingIngest(t *testing.T) {
	for _, pol := range []string{"Kitsune", "HistHog"} {
		t.Run(pol, func(t *testing.T) {
			srv := New(Config{Workers: 2, Resolve: testResolve})
			ten, report, err := srv.StartTenant("edge", "NPOD", 0)
			if err != nil {
				t.Fatalf("StartTenant: %v\n%s", err, report)
			}
			within := func(what string, f func()) {
				t.Helper()
				done := make(chan struct{})
				go func() { f(); close(done) }()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					// No Shutdown: it would hang behind the same lock.
					t.Fatalf("%s did not finish: the tenant is wedged", what)
				}
			}

			candidate, err := testResolve(pol)
			if err != nil {
				t.Fatal(err)
			}
			pkts := enterprise(4, 3).Packets
			var wg sync.WaitGroup
			errs := make(chan error, 34)
			wg.Add(34)
			go func() {
				defer wg.Done()
				if _, err := ten.Reload(pol, candidate); (err != nil) != (pol == "HistHog") {
					errs <- fmt.Errorf("reload to %s: %v", pol, err)
				}
			}()
			go func() {
				defer wg.Done()
				errs <- ten.Flush()
			}()
			for i := 0; i < 32; i++ {
				go func(i int) {
					defer wg.Done()
					errs <- ten.Ingest(pkts[i : i+1])
				}(i)
			}
			within("the racing calls", wg.Wait)
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			within("Flush", func() { err = ten.Flush() })
			if err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if got := ten.Info().Pkts; got != 32 {
				t.Fatalf("tenant ingested %d packets, want 32", got)
			}
			within("Shutdown", func() { srv.Shutdown() })
		})
	}
}

// TestStopRacingIngest: Stop lands while eight goroutines ingest
// disjoint flow sets in 8-packet chunks. Each chunk is taken whole or
// refused with ErrTenantStopped, and once refused every later chunk is
// too; the tenant counts exactly the accepted packets, and the
// subscriber's stream — drained by Stop — is the multiset of a batch
// engine run over each goroutine's accepted prefix. NPOD has one
// granularity, so a group's vector depends on its own packets alone.
func TestStopRacingIngest(t *testing.T) {
	const feeders, chunk = 8, 8
	srv, ten := startTenant(t, "edge", "NPOD", 2)
	col, _ := pipeSubscriber(t, srv, "edge", false)

	var sets [feeders][]packet.Packet
	tr := enterprise(1500, 5)
	for _, p := range tr.Packets {
		key, _ := flowkey.KeyFor(flowkey.GranFlow, p.Tuple)
		i := flowkey.HashKey(key) % feeders
		sets[i] = append(sets[i], p)
	}
	var accepted [feeders]int
	var wg sync.WaitGroup
	errs := make(chan error, feeders)
	for g := range sets {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pkts := sets[g]
			for off := 0; off < len(pkts); off += chunk {
				err := ten.Ingest(pkts[off:min(off+chunk, len(pkts))])
				switch {
				case err == nil && accepted[g] == off:
					accepted[g] = min(off+chunk, len(pkts))
				case err == nil:
					errs <- fmt.Errorf("feeder %d: chunk at %d accepted after a refusal", g, off)
					return
				case !errors.Is(err, ErrTenantStopped):
					errs <- fmt.Errorf("feeder %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	for deadline := time.Now().Add(10 * time.Second); ten.Info().Pkts < uint64(len(tr.Packets)/4); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("feeders made no progress")
		}
	}
	if err := ten.Stop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	<-col.done

	var ref []feature.Vector
	total := 0
	for g := range sets {
		total += accepted[g]
		e, err := core.New(core.DefaultOptions(), apps.NPOD(), feature.Collect(&ref))
		if err != nil {
			t.Fatal(err)
		}
		for i := range sets[g][:accepted[g]] {
			e.Process(&sets[g][i])
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("accepted %d of %d packets", total, len(tr.Packets))
	if got := ten.Info().Pkts; got != uint64(total) {
		t.Fatalf("tenant counted %d packets, feeders had %d accepted", got, total)
	}
	if got := col.snapshot(); !sameMultiset(got, ref) {
		t.Fatalf("subscriber's %d vectors diverge from the batch engine's %d over the accepted prefixes", len(got), len(ref))
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
	sub, err := Dial("unix", sock, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(); err != nil {
		t.Fatal(err)
	}
	collect(sub)
	sendTrace(t, srv, sock, "alpha", tr.Packets, 64)

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
	// The egress counters: one subscriber, so every vector was enqueued
	// and written once, in fewer writes than vectors; the same numbers
	// are tenant-tagged series on the scrape.
	var listing struct {
		Tenants []TenantInfo `json:"tenants"`
	}
	_, body := get("/tenants")
	if err := json.Unmarshal([]byte(body), &listing); err != nil || len(listing.Tenants) != 1 {
		t.Fatalf("GET /tenants does not parse as one tenant (%v):\n%s", err, body)
	}
	info := listing.Tenants[0]
	eg := info.Egress
	if info.Vectors == 0 || eg.VectorsEnqueued != info.Vectors || eg.VectorsWritten != info.Vectors ||
		eg.VectorsDiscarded != 0 || eg.Writes == 0 || eg.Writes >= eg.VectorsWritten || eg.Bytes == 0 {
		t.Fatalf("egress rollup %+v does not account for %d vectors to one subscriber", eg, info.Vectors)
	}
	if len(info.SubscriberEgress) != 1 || info.SubscriberEgress[0].EgressStats != eg || info.SubscriberEgress[0].Peer == "" {
		t.Fatalf("per-subscriber egress %+v does not match the rollup %+v", info.SubscriberEgress, eg)
	}
	if info.Disconnects != (Disconnects{}) {
		t.Fatalf("disconnects = %+v with a healthy subscriber", info.Disconnects)
	}
	_, metrics := get("/tenants/alpha/obs/metrics")
	for _, line := range []string{
		fmt.Sprintf(`superfe_serve_egress_vectors_total{tenant="alpha",state="written"} %d`, eg.VectorsWritten),
		fmt.Sprintf(`superfe_serve_egress_writes_total{tenant="alpha"} %d`, eg.Writes),
		`superfe_serve_egress_disconnects_total{tenant="alpha",reason="deadline"} 0`,
	} {
		if !strings.Contains(metrics, line+"\n") {
			t.Fatalf("tenant scrape lacks %q", line)
		}
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

// sameMultiset reports whether two vector sets are byte-identical as
// multisets of wire encodings.
func sameMultiset(a, b []feature.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	ma, mb := wireMultiset(a), wireMultiset(b)
	for k, n := range mb {
		if ma[k] != n {
			return false
		}
	}
	return true
}

// linkMode is what a condConn does to the server's writes.
type linkMode int32

const (
	linkUp     linkMode = iota
	linkStall           // deliver nothing; block until the write deadline or Close
	linkSlow            // trickle through in small pieces
	linkCut             // deliver all but the tail of a frame, then fail: the link broke mid-frame
	linkHiccup          // fail one write outright, delivering none of it, then come back up
)

var errLinkCut = errors.New("link cut")

// condConn is an in-process link conditioner: the server side of a
// connection whose write direction misbehaves on command, the way a
// netem qdisc would make it, with no kernel and no privileges.
type condConn struct {
	net.Conn
	mode atomic.Int32

	mu        sync.Mutex
	deadline  time.Time
	closeOnce sync.Once
	closed    chan struct{}
}

func newCondConn(c net.Conn) *condConn { return &condConn{Conn: c, closed: make(chan struct{})} }

func (c *condConn) set(m linkMode) { c.mode.Store(int32(m)) }

func (c *condConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *condConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *condConn) Write(b []byte) (int, error) {
	switch linkMode(c.mode.Load()) {
	case linkStall:
		c.mu.Lock()
		deadline := c.deadline
		c.mu.Unlock()
		var expired <-chan time.Time
		if !deadline.IsZero() {
			tm := time.NewTimer(time.Until(deadline))
			defer tm.Stop()
			expired = tm.C
		}
		select {
		case <-expired:
			return 0, os.ErrDeadlineExceeded
		case <-c.closed:
			return 0, net.ErrClosed
		}
	case linkSlow:
		n := 0
		for len(b) > 0 {
			m, err := c.Conn.Write(b[:min(len(b), 4096)])
			n += m
			if err != nil {
				return n, err
			}
			b = b[m:]
			time.Sleep(20 * time.Microsecond)
		}
		return n, nil
	case linkHiccup:
		c.set(linkUp)
		return 0, errLinkCut
	case linkCut:
		// Only the write side fails, as on a half-dead link; the reader
		// learns when the server gives the connection up.
		n, _ := c.Conn.Write(b[:len(b)-3])
		return n, errLinkCut
	}
	return c.Conn.Write(b)
}

// pipeSession runs the connection handler on the server end of a
// net.Pipe — no kernel buffer, so a server Write completes only as the
// client reads it and an ordering bug has nowhere to hide — optionally
// behind a link conditioner, and returns the client bound to tenant.
// The handler is joined at cleanup.
func pipeSession(t *testing.T, srv *Server, tenant string, conditioned bool) (*Client, *condConn) {
	t.Helper()
	cli, srvSide := net.Pipe()
	var link *condConn
	if conditioned {
		link = newCondConn(srvSide)
		srvSide = link
	}
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		srv.handleConn(srvSide)
	}()
	c := newClient(cli)
	t.Cleanup(func() {
		c.Close()
		<-handled
	})
	if err := c.send(FrameHello, []byte(tenant)); err != nil {
		t.Fatal(err)
	}
	if err := c.awaitOK(); err != nil {
		t.Fatal(err)
	}
	return c, link
}

// pipeSubscriber is a pipeSession that has subscribed and is being
// collected.
func pipeSubscriber(t *testing.T, srv *Server, tenant string, conditioned bool) (*collector, *condConn) {
	t.Helper()
	c, link := pipeSession(t, srv, tenant, conditioned)
	if err := c.Subscribe(); err != nil {
		t.Fatal(err)
	}
	return collect(c), link
}

// startTenant deploys one tenant on a listener-less server.
func startTenant(t *testing.T, name, pol string, workers int) (*Server, *Tenant) {
	t.Helper()
	srv := New(Config{Workers: workers})
	t.Cleanup(func() { srv.Shutdown() })
	ten, report, err := srv.StartTenant(name, pol, 0)
	if err != nil {
		t.Fatalf("StartTenant(%s, %s): %v\n%s", name, pol, err, report)
	}
	return srv, ten
}

// enterprise generates a fixed-seed ENTERPRISE-shaped trace.
func enterprise(flows int, seed int64) *trace.Trace {
	cfg := trace.EnterpriseConfig
	cfg.Flows = flows
	return trace.Generate(cfg, seed)
}

// TestFlushIsEgressBarrier pins the barrier and framing contract over
// an unbuffered pipe: when Client.Flush returns, every vector the flush
// emitted has already been written to every subscriber. The link is cut
// off the moment Flush returns, so a vector still sitting in a backlog
// could never arrive; the stream must nevertheless decode cleanly —
// no frame torn or interleaved with two shards emitting — into exactly
// the batch engine's multiset.
func TestFlushIsEgressBarrier(t *testing.T) {
	srv, ten := startTenant(t, "edge", "NPOD", 2)
	tr := enterprise(400, 7)
	ref := referenceRun(t, apps.NPOD(), tr, 2)

	col, link := pipeSubscriber(t, srv, "edge", true)
	ingest, _ := pipeSession(t, srv, "edge", false)
	for off := 0; off < len(tr.Packets); off += 113 {
		if err := ingest.SendPackets(tr.Packets[off:min(off+113, len(tr.Packets))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ingest.Flush(); err != nil {
		t.Fatal(err)
	}
	link.set(linkStall)

	eg := assertEgressBalanced(t, ten)
	if eg.VectorsWritten != uint64(len(ref)) || eg.VectorsDiscarded != 0 {
		t.Fatalf("at the barrier: %d written, %d discarded, want %d written", eg.VectorsWritten, eg.VectorsDiscarded, len(ref))
	}
	if got := col.await(t, len(ref)); !sameMultiset(got, ref) {
		t.Fatalf("subscriber's %d vectors diverge from the batch engine's %d", len(got), len(ref))
	}
}

// TestStopAfterFlushDeliversOnce stops a tenant whose resident groups
// were already emitted by a Flush, and one that was never flushed: in
// both, the subscriber reads to the end of its stream exactly the
// inline engine's multiset, each per-group vector once.
func TestStopAfterFlushDeliversOnce(t *testing.T) {
	tr := enterprise(300, 11)
	var ref []feature.Vector
	e, err := core.New(core.DefaultOptions(), apps.NPOD(), feature.Collect(&ref))
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
	for _, flush := range []bool{true, false} {
		t.Run(fmt.Sprintf("flush=%v", flush), func(t *testing.T) {
			srv, ten := startTenant(t, "edge", "NPOD", 1)
			col, _ := pipeSubscriber(t, srv, "edge", false)
			if err := ten.Ingest(tr.Packets); err != nil {
				t.Fatal(err)
			}
			if flush {
				if err := ten.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.StopTenant("edge"); err != nil {
				t.Fatal(err)
			}
			select {
			case <-col.done:
			case <-time.After(10 * time.Second):
				t.Fatal("the subscriber's stream did not end at Stop")
			}
			if col.err != io.EOF {
				t.Fatalf("stream ended with %v, want io.EOF", col.err)
			}
			if got := col.snapshot(); !sameMultiset(got, ref) {
				t.Fatalf("subscriber read %d vectors, the inline engine emitted %d (or another multiset)", len(got), len(ref))
			}
		})
	}
}

// TestVectorsFlowWithoutBarrier: a steady per-packet emitter (Kitsune)
// reaches its subscriber as the engine emits — no Flush, no full
// buffer. One engine batch of vectors is deliberately less than one
// egress buffer, so a design that wrote only full buffers or at
// barriers would deliver nothing here. (The engine itself hands
// vectors to its sink in runs of 64, so that is what must arrive.)
func TestVectorsFlowWithoutBarrier(t *testing.T) {
	srv, ten := startTenant(t, "lab", "Kitsune", 1)
	const engineBatch = 256 // core's rows per columnar batch
	frame := gpv.FrameHeaderBytes + vectorHdrBytes + 8*apps.Kitsune().FeatureDim()
	if engineBatch*frame >= egressBufBytes {
		t.Fatalf("test premise broken: one engine batch (%d B) fills an egress buffer (%d B)", engineBatch*frame, egressBufBytes)
	}
	cfg := trace.CampusConfig
	cfg.Flows = 40
	tr := trace.Generate(cfg, 9)

	col, _ := pipeSubscriber(t, srv, "lab", false)
	if err := ten.Ingest(tr.Packets[:engineBatch+engineBatch/2]); err != nil {
		t.Fatal(err)
	}
	// The half batch still sits in the router; the full one was
	// extracted.
	col.await(t, 64)
}

// TestStalledSubscriberIsDisconnected is the misbehaving neighbour on
// one tenant: of three subscribers one stalls forever and one drains
// slowly. The stalled one costs the dataplane a bounded wait — its
// backlog fills, emit waits out one write deadline — and is then
// disconnected with a counted reason and a counted loss; the other two
// receive the batch engine's multiset byte for byte.
func TestStalledSubscriberIsDisconnected(t *testing.T) {
	srv, ten := startTenant(t, "edge", "NPOD", 2)
	tr := enterprise(2500, 17)
	ref := referenceRun(t, apps.NPOD(), tr, 2)

	healthy, _ := pipeSubscriber(t, srv, "edge", false)
	slow, slowLink := pipeSubscriber(t, srv, "edge", true)
	stalled, stalledLink := pipeSubscriber(t, srv, "edge", true)
	slowLink.set(linkSlow)
	stalledLink.set(linkStall)

	start := time.Now()
	if err := ten.Ingest(tr.Packets); err != nil {
		t.Fatal(err)
	}
	if err := ten.Flush(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 3*egressWriteDeadline {
		t.Errorf("ingest+Flush took %v beside a stalled subscriber; the stall is bounded by the %v write deadline", took, egressWriteDeadline)
	}

	info := ten.Info()
	eg := assertEgressBalanced(t, ten)
	if want := (Disconnects{Deadline: 1}); info.Disconnects != want {
		t.Errorf("disconnects = %+v, want %+v", info.Disconnects, want)
	}
	if eg.VectorsWritten != 2*uint64(len(ref)) || eg.VectorsDiscarded == 0 {
		t.Errorf("egress = %+v, want %d written (two live subscribers) and the stalled one's share discarded", eg, 2*len(ref))
	}
	if eg.EmitWaits == 0 {
		t.Errorf("emit never waited: the stalled backlog (%d vectors) did not fill, the test is too small", eg.VectorsDiscarded)
	}
	if got := healthy.await(t, len(ref)); !sameMultiset(got, ref) {
		t.Errorf("healthy subscriber's %d vectors diverge from the batch engine's %d", len(got), len(ref))
	}
	if got := slow.await(t, len(ref)); !sameMultiset(got, ref) {
		t.Errorf("slow subscriber's %d vectors diverge from the batch engine's %d", len(got), len(ref))
	}
	select {
	case <-stalled.done:
		if n := len(stalled.snapshot()); n != 0 {
			t.Errorf("stalled subscriber received %d vectors through a stalled link", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled subscriber's connection was never closed")
	}
}

// TestStalledSubscriberTenantIsolation is the misbehaving neighbour
// across tenants: while tenant alpha waits out a stalled subscriber,
// tenant beta ingests, flushes and delivers the batch engine's multiset
// — and is done before alpha's deadline has even fired.
func TestStalledSubscriberTenantIsolation(t *testing.T) {
	srv, sock := startServer(t, Config{Workers: 2},
		[2]string{"alpha", "NPOD"}, [2]string{"beta", "Kitsune"})
	alpha, _ := srv.Tenant("alpha")
	trA := enterprise(160, 5)
	cfgB := trace.CampusConfig
	cfgB.Flows = 40
	trB := trace.Generate(cfgB, 9)
	refB := referenceRun(t, apps.Kitsune(), trB, 2)

	_, stalledLink := pipeSubscriber(t, srv, "alpha", true)
	stalledLink.set(linkStall)
	colB, _ := pipeSubscriber(t, srv, "beta", false)

	alphaDone := make(chan struct{})
	go func() {
		defer close(alphaDone)
		sendTrace(t, srv, sock, "alpha", trA.Packets, 97)
	}()
	// alpha's flush is now (or soon) parked on the stalled writer.
	sendTrace(t, srv, sock, "beta", trB.Packets, 61)
	if d := alpha.Info().Disconnects; d != (Disconnects{}) {
		t.Errorf("beta's flush outlasted alpha's stall (alpha disconnects %+v): either beta waited on alpha or this box is too slow for the test", d)
	}
	if got := colB.await(t, len(refB)); !sameMultiset(got, refB) {
		t.Errorf("beta's %d vectors diverge from the single-tenant reference's %d beside alpha's stall", len(got), len(refB))
	}
	<-alphaDone
	if want := (Disconnects{Deadline: 1}); alpha.Info().Disconnects != want {
		t.Errorf("alpha disconnects = %+v, want %+v", alpha.Info().Disconnects, want)
	}
}

// TestEmitWaitHoldsNoTenantLock: while emit waits on one subscriber's
// full backlog, it holds up the dataplane and nobody else. GET /tenants
// (Info) and a second connection's Subscribe return at once, not after
// the stalled Write's deadline.
func TestEmitWaitHoldsNoTenantLock(t *testing.T) {
	srv, ten := startTenant(t, "edge", "NPOD", 1)
	_, link := pipeSubscriber(t, srv, "edge", true)
	second, _ := pipeSession(t, srv, "edge", false)
	link.set(linkStall)
	stalled := ten.subscribers()[0]

	v := feature.Vector{Values: make([]float64, apps.NPOD().FeatureDim())}
	frame := len(appendVectorFrame(nil, &v))
	emitting := make(chan struct{})
	var calls, returns atomic.Int64
	go func() {
		defer close(emitting)
		// The writer's Write stalls holding the first vector; the rest
		// fill the other buffer past its bound.
		for i := 0; i < 3*egressBufBytes/frame; i++ {
			calls.Add(1)
			ten.emit(v)
			returns.Add(1)
		}
	}()
	// Parked: an emit call is under way and the backlog has no room.
	for parked := false; !parked; time.Sleep(time.Millisecond) {
		stalled.mu.Lock()
		parked = stalled.full(frame) && calls.Load() > returns.Load()
		stalled.mu.Unlock()
	}

	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(200 * time.Millisecond):
			t.Errorf("%s waited on the parked emit", what)
			<-done
		}
	}
	within("Info", func() { ten.Info() })
	within("a second subscriber's Subscribe", func() {
		if err := second.Subscribe(); err != nil {
			t.Error(err)
		}
	})
	select {
	case <-emitting:
		t.Fatal("emit finished before the checks: nothing was parked")
	default:
	}
	collect(second)
	link.Close() // fails the stalled Write, which releases emit
	<-emitting
}

// TestMidFrameCloseLeavesNothingBehind: a link that breaks in the
// middle of a frame disconnects the subscriber with reason error, the
// loss is counted, the peer sees a torn stream end, and neither the
// writer nor the connection's handler outlives it.
func TestMidFrameCloseLeavesNothingBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, ten := startTenant(t, "edge", "NPOD", 1)
	tr := enterprise(40, 3)

	col, link := pipeSubscriber(t, srv, "edge", true)
	link.set(linkCut)
	if err := ten.Ingest(tr.Packets); err != nil {
		t.Fatal(err)
	}
	if err := ten.Flush(); err != nil {
		t.Fatal(err)
	}
	info := ten.Info()
	eg := assertEgressBalanced(t, ten)
	if want := (Disconnects{Error: 1}); info.Disconnects != want {
		t.Errorf("disconnects = %+v, want %+v", info.Disconnects, want)
	}
	if eg.VectorsWritten != 0 || eg.VectorsDiscarded == 0 {
		t.Errorf("egress = %+v, want nothing written and the backlog discarded", eg)
	}
	select {
	case <-col.done:
		if !errors.Is(col.err, io.ErrUnexpectedEOF) {
			t.Errorf("peer's stream ended with %v, want a torn frame (io.ErrUnexpectedEOF)", col.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cut subscriber's connection was never closed")
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after shutdown:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestDisconnectSaysGoodbye: a subscriber dropped while its stream is
// still on a frame boundary is told why — its next read is an ErrRemote
// naming the reason, not a bare EOF — and then its connection closes.
func TestDisconnectSaysGoodbye(t *testing.T) {
	srv, ten := startTenant(t, "edge", "NPOD", 1)
	col, link := pipeSubscriber(t, srv, "edge", true)
	link.set(linkHiccup)
	if err := ten.Ingest(enterprise(40, 3).Packets); err != nil {
		t.Fatal(err)
	}
	if err := ten.Flush(); err != nil {
		t.Fatal(err)
	}
	assertEgressBalanced(t, ten)
	select {
	case <-col.done:
		if !errors.Is(col.err, ErrRemote) || !strings.Contains(col.err.Error(), reasonError.String()) {
			t.Errorf("dropped subscriber's stream ended with %v, want ErrRemote naming %q", col.err, reasonError)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dropped subscriber's connection was never closed")
	}
}

// nullConn is a subscriber connection that accepts every write at once.
type nullConn struct{ net.Conn }

func (nullConn) Write(b []byte) (int, error)      { return len(b), nil }
func (nullConn) SetWriteDeadline(time.Time) error { return nil }
func (nullConn) Close() error                     { return nil }

// BenchmarkEmit prices the dataplane's side of the egress — frame once,
// append to every backlog — and fails if it allocates once the buffers
// have grown.
func BenchmarkEmit(b *testing.B) {
	for _, subs := range []int{1, 4} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			srv := New(Config{Workers: 1})
			defer srv.Shutdown()
			ten, _, err := srv.StartTenant("bench", "NPOD", 0)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < subs; i++ {
				if _, err := ten.subscribe(nullConn{}); err != nil {
					b.Fatal(err)
				}
			}
			v := feature.Vector{Values: make([]float64, apps.NPOD().FeatureDim())}
			emit := func() { ten.emit(v) }
			for i := 0; i < 4*egressBufBytes/64; i++ { // grow every buffer to its bound
				emit()
			}
			if avg := testing.AllocsPerRun(10000, emit); avg != 0 {
				b.Fatalf("emit allocates %.2f times per vector", avg)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				emit()
			}
		})
	}
}

// TestIngestSteadyStateAllocs: once the engine's groups are admitted,
// an Ingest frame costs no allocation: it routes the caller's packets
// in place, with no copy and no hand-off.
func TestIngestSteadyStateAllocs(t *testing.T) {
	_, ten := startTenant(t, "edge", "NPOD", 1)
	pkts := enterprise(200, 1).Packets[:512]
	ingest := func(frames int) {
		for i := 0; i < frames; i++ {
			if err := ten.Ingest(pkts); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(50) // admits the groups
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const frames = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ingest(frames)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / frames
	t.Logf("%.2f allocations per Ingest frame", per)
	if per > 0.5 {
		t.Errorf("%.2f allocations per Ingest frame in the steady state", per)
	}
}
