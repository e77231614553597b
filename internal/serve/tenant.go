package serve

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"superfe/internal/apps"
	"superfe/internal/core"
	"superfe/internal/feature"
	"superfe/internal/gpv"
	"superfe/internal/obs"
	"superfe/internal/packet"
	"superfe/internal/planvet"
	"superfe/internal/policy"
)

// Tenant lifecycle errors.
var (
	// ErrTenantStopped is returned by every tenant operation after
	// Stop: the engine has drained and the command loop has exited.
	ErrTenantStopped = errors.New("serve: tenant is stopped")
	// ErrReloadRejected marks a hot-reload candidate that failed the
	// planvet/planprove gate; the accompanying report carries the cost
	// and witness findings, and the live plan keeps serving.
	ErrReloadRejected = errors.New("serve: reload rejected by planvet")
)

// tenantOp enumerates the command loop's operations.
type tenantOp uint8

const (
	opIngest tenantOp = iota
	opFlush
	opReload
	opStop
)

// tenantCmd is one queued command. The loop goroutine is the only
// caller of the engine's router-goroutine-only methods (Process,
// Flush, SwapPlan, Close), so queueing is what preserves the engine's
// single-router contract under many concurrent connections.
type tenantCmd struct {
	op tenantOp
	// pkts is an opIngest's batch: the pool's own slice pointer, which
	// the loop puts back once it has processed the packets.
	pkts    *[]packet.Packet
	polName string
	pol     *policy.Policy
	reply   chan<- reloadResult
	err     chan<- error
}

// reloadResult is a reload's outcome: the planvet cost report (always
// populated when the candidate compiled) plus the rejection or swap
// error, nil on success.
type reloadResult struct {
	Report string
	Err    error
}

// Tenant is one isolated deployment inside the service: a policy, its
// compiled plan and a dedicated engine with its own obs
// registries, fed by a single command loop and observed by any number
// of vector subscribers. All exported methods are safe from any
// goroutine.
type Tenant struct {
	name    string
	workers int
	eng     *core.Engine
	cmds    chan tenantCmd

	// mu is the send gate and guards only stopped: senders hold it
	// shared while enqueueing — possibly blocked on a full cmds — and
	// Stop takes it exclusively to flip the flag, so no command can be
	// enqueued after the opStop that ends the loop. The loop, cmds' only
	// receiver, must therefore never take it.
	mu      sync.RWMutex
	stopped bool

	// idMu guards the identity fields a reload rewrites on the loop.
	idMu       sync.Mutex
	polName    string
	featureDim int
	lastReject string

	// pool recycles ingest packet slices between the connection
	// readers (which decode records out of the reused frame buffer
	// straight into one) and the loop (which returns them after
	// Process). A pointer: the runtime's pool registry keeps a used
	// Pool reachable for two collections, and must not keep a stopped
	// tenant's engine reachable with it.
	pool *sync.Pool

	// subMu guards the subscriber set and its closed flag. emit holds it
	// only to copy the set into emitSubs, and subscribe enqueues the ack
	// before adding to the set under it, so a subscriber emit sees has
	// its ack first in its backlog. emitSubs and enc belong to emit,
	// which the engine's sink lock serialises; its bounded wait on a full
	// backlog therefore holds up no one but the dataplane.
	subMu      sync.Mutex
	subs       []*subscriber
	subsClosed bool
	emitSubs   []*subscriber
	enc        []byte
	egress     *egressCounters

	pktsIn   atomic.Uint64
	vecsOut  atomic.Uint64
	reloads  atomic.Uint64
	rejected atomic.Uint64
}

// TenantInfo is one row of the admin surface's GET /tenants listing.
type TenantInfo struct {
	Name            string `json:"name"`
	Policy          string `json:"policy"`
	Workers         int    `json:"workers"`
	FeatureDim      int    `json:"feature_dim"`
	Health          string `json:"health"`
	Pkts            uint64 `json:"pkts"`
	Vectors         uint64 `json:"vectors"`
	Subscribers     int    `json:"subscribers"`
	Reloads         uint64 `json:"reloads"`
	RejectedReloads uint64 `json:"rejected_reloads"`
	LastReject      string `json:"last_reject,omitempty"`
	// Egress rolls up every subscriber the tenant has had, Disconnects
	// those the server dropped; SubscriberEgress lists the live ones.
	Egress           EgressStats      `json:"egress"`
	Disconnects      Disconnects      `json:"disconnects"`
	SubscriberEgress []SubscriberInfo `json:"subscriber_egress,omitempty"`
}

// vetPlan compiles and gates one policy the way `superfe-vet -prove`
// does: phase-1 resource feasibility plus phase-2 value-range proofs,
// with the catalog's reviewed waivers applied. It returns the
// compiled plan, the rendered report, and ErrReloadRejected when the
// gate fails.
func vetPlan(name string, pol *policy.Policy) (*policy.Plan, string, error) {
	plan, err := policy.Compile(pol)
	if err != nil {
		return nil, "", fmt.Errorf("serve: compile %s: %w", name, err)
	}
	if n := vectorHdrBytes + 8*pol.FeatureDim(); n > gpv.MaxFramePayload {
		return nil, "", fmt.Errorf("serve: %s: a %d-byte vector does not fit a frame (%d)", name, n, gpv.MaxFramePayload)
	}
	rep := planvet.Check(planvet.DefaultModel(), pol.Name(), plan)
	if !rep.Feasible() || len(rep.Proof.Unwaived(apps.Waivers())) > 0 {
		return nil, rep.String(), fmt.Errorf("%w: %s", ErrReloadRejected, pol.Name())
	}
	return plan, rep.String(), nil
}

// newTenant vets the policy, deploys the vetted plan and starts the
// command loop. The engine streams vectors (DeterministicMerge off)
// into the tenant's subscriber backlogs; telemetry is always on so the
// per-tenant admin surface has something to serve.
func newTenant(name, polName string, pol *policy.Policy, workers int) (*Tenant, string, error) {
	plan, report, err := vetPlan(name, pol)
	if err != nil {
		return nil, report, err
	}
	t := &Tenant{
		name:       name,
		workers:    workers,
		polName:    polName,
		featureDim: pol.FeatureDim(),
		cmds:       make(chan tenantCmd, 16),
		pool:       new(sync.Pool),
		egress:     newEgressCounters(),
	}
	popts := core.DefaultParallelOptions()
	popts.Workers = workers
	popts.Obs = obs.DefaultOptions()
	popts.Obs.Enabled = true
	eng, err := core.NewFromPlan(popts, plan, t.emit)
	if err != nil {
		return nil, report, fmt.Errorf("serve: tenant %s: %w", name, err)
	}
	t.eng = eng
	//superfe:goroutine-ok tenant command loop: exits when the opStop command (the only command enqueueable after the stopped flag is set) is processed, and Stop waits on its reply
	go t.loop()
	return t, report, nil
}

// Name returns the tenant's registry name.
func (t *Tenant) Name() string { return t.name }

// loop is the tenant's router goroutine: it owns every call into the
// engine's single-goroutine surface.
func (t *Tenant) loop() {
	for cmd := range t.cmds {
		switch cmd.op {
		case opIngest:
			pkts := *cmd.pkts
			for i := range pkts {
				t.eng.Process(&pkts[i])
			}
			t.pktsIn.Add(uint64(len(pkts)))
			t.pool.Put(cmd.pkts)
		case opFlush:
			// The egress half of the barrier runs on the caller (Flush), so
			// a slow subscriber holds up whoever asked, not the loop.
			cmd.err <- t.eng.Flush()
		case opReload:
			cmd.reply <- t.applyReload(cmd.polName, cmd.pol)
		case opStop:
			// Graceful drain: emit everything resident, retire the
			// workers, then end every subscriber's stream once its
			// writer has written what is left. Queued commands cannot
			// follow (the send gate closed before opStop was enqueued).
			err := t.eng.Flush()
			if cerr := t.eng.Close(); err == nil {
				err = cerr
			}
			t.closeSubscribers()
			cmd.err <- err
			return
		}
	}
}

// applyReload gates a candidate policy through planvet/planprove and,
// only if it passes, swaps it in at a batch barrier. A rejected or
// failed candidate leaves the live plan serving untouched.
func (t *Tenant) applyReload(polName string, pol *policy.Policy) reloadResult {
	plan, report, err := vetPlan(t.name, pol)
	if err != nil {
		t.rejected.Add(1)
		t.idMu.Lock()
		t.lastReject = polName
		t.idMu.Unlock()
		return reloadResult{Report: report, Err: err}
	}
	if err := t.eng.SwapPlan(plan); err != nil {
		t.rejected.Add(1)
		return reloadResult{Report: report, Err: err}
	}
	t.reloads.Add(1)
	t.idMu.Lock()
	t.polName = polName
	t.featureDim = pol.FeatureDim()
	t.idMu.Unlock()
	return reloadResult{Report: report}
}

// send enqueues one command, holding the send gate shared so Stop's
// exclusive flip strictly orders every command before opStop.
func (t *Tenant) send(cmd tenantCmd) error {
	t.mu.RLock()
	if t.stopped {
		t.mu.RUnlock()
		return ErrTenantStopped
	}
	t.cmds <- cmd
	t.mu.RUnlock()
	return nil
}

// Ingest queues a batch of packets for extraction. The batch is
// copied (into a pooled slice), so the caller may reuse pkts.
func (t *Tenant) Ingest(pkts []packet.Packet) error {
	if len(pkts) == 0 {
		return nil
	}
	b := t.batch()
	*b = append(*b, pkts...)
	return t.send(tenantCmd{op: opIngest, pkts: b})
}

// batch returns an empty packet slice from the pool (a new one when
// the pool is dry) for the caller to fill and send as an opIngest,
// which passes its ownership to the command loop.
func (t *Tenant) batch() *[]packet.Packet {
	if p, ok := t.pool.Get().(*[]packet.Packet); ok {
		*p = (*p)[:0]
		return p
	}
	return new([]packet.Packet)
}

// Flush drains the tenant's engine and blocks until every queued
// packet has been extracted, every resident group evicted, and every
// subscriber's writer has written everything that emitted (a
// subscriber that cannot take it within egressWriteDeadline is
// disconnected and its share counted as discarded) — the service-level
// sync point.
func (t *Tenant) Flush() error {
	reply := make(chan error, 1)
	if err := t.send(tenantCmd{op: opFlush, err: reply}); err != nil {
		return err
	}
	err := <-reply
	for _, sub := range t.subscribers() {
		sub.await()
	}
	return err
}

// Reload gates the candidate policy through planvet/planprove and
// swaps it in at a batch barrier. The returned report is the planvet
// cost report (populated whenever the candidate compiled); on
// ErrReloadRejected it carries the findings and the live plan keeps
// serving.
func (t *Tenant) Reload(polName string, pol *policy.Policy) (string, error) {
	reply := make(chan reloadResult, 1)
	if err := t.send(tenantCmd{op: opReload, polName: polName, pol: pol, reply: reply}); err != nil {
		return "", err
	}
	res := <-reply
	return res.Report, res.Err
}

// Stop flushes, retires the engine, drains and closes every
// subscriber's stream (joining its writer) and ends the command loop.
// Every operation after Stop returns ErrTenantStopped.
func (t *Tenant) Stop() error {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return ErrTenantStopped
	}
	t.stopped = true
	reply := make(chan error, 1)
	t.cmds <- tenantCmd{op: opStop, err: reply}
	t.mu.Unlock()
	return <-reply
}

// Policy returns the name the live policy was loaded under.
func (t *Tenant) Policy() string {
	t.idMu.Lock()
	defer t.idMu.Unlock()
	return t.polName
}

// Info assembles the tenant's admin listing row.
func (t *Tenant) Info() TenantInfo {
	t.idMu.Lock()
	polName, dim, lastReject := t.polName, t.featureDim, t.lastReject
	t.idMu.Unlock()
	t.subMu.Lock()
	var subs []SubscriberInfo
	for _, sub := range t.subs {
		sub.mu.Lock()
		subs = append(subs, SubscriberInfo{Peer: sub.conn.RemoteAddr().String(), EgressStats: sub.stats})
		sub.mu.Unlock()
	}
	t.subMu.Unlock()
	egress, disconnects := t.egress.read()
	return TenantInfo{
		Name:             t.name,
		Policy:           polName,
		Workers:          t.workers,
		FeatureDim:       dim,
		Health:           t.eng.Status().Health,
		Pkts:             t.pktsIn.Load(),
		Vectors:          t.vecsOut.Load(),
		Subscribers:      len(subs),
		Reloads:          t.reloads.Load(),
		RejectedReloads:  t.rejected.Load(),
		LastReject:       lastReject,
		Egress:           egress,
		Disconnects:      disconnects,
		SubscriberEgress: subs,
	}
}

// Status returns the engine's merged status report scoped to the
// tenant.
func (t *Tenant) Status() *obs.StatusReport {
	st := t.eng.Status()
	st.Tenant = t.name
	return st
}

// ObsSource adapts the tenant for the obs HTTP handler: the engine's
// own source — every view of which is safe from the HTTP goroutine
// while the command loop runs — with the egress counters stacked onto
// the scrape, the scrape and the interval series tagged with the tenant
// label and the status report carrying the tenant name.
func (t *Tenant) ObsSource() obs.Source {
	src := t.eng.ObsSource()
	src.Scrape = func() *obs.Snapshot {
		snap := t.eng.ObsScrape()
		snap.Append(t.egress.reg.Snapshot())
		return snap.Tagged("tenant", t.name)
	}
	src.Series = func() *obs.Series { return t.eng.ObsSeries().Tagged("tenant", t.name) }
	src.Status = t.Status
	return src
}

// subscribe turns conn into a vector output stream: it enqueues the
// FrameOK acknowledgement as the first bytes of the new subscriber's
// backlog and registers it, in one subMu critical section. emit copies
// the set under the same lock, so the ack strictly precedes the first
// FrameVector and no vector emitted after the ack is missed. From here
// on the subscriber's writer owns conn's write side.
func (t *Tenant) subscribe(conn net.Conn) (*subscriber, error) {
	ack, err := gpv.AppendFrame(nil, FrameOK, nil)
	if err != nil {
		return nil, err
	}
	sub := newSubscriber(t, conn)
	t.subMu.Lock()
	if t.subsClosed {
		t.subMu.Unlock()
		return nil, ErrTenantStopped
	}
	sub.enqueue(ack, 0)
	t.subs = append(t.subs, sub)
	t.subMu.Unlock()
	//superfe:goroutine-ok subscriber writer: exits once the subscriber is shut (by its connection handler when the peer goes, by its own failed or late Write, or by Tenant.Stop) and its backlog is written or discarded; every Write is deadline-bounded, and unsubscribe and closeSubscribers wait on sub.done
	go sub.writeLoop()
	return sub, nil
}

// remove takes a subscriber whose writer is exiting out of the set.
func (t *Tenant) remove(sub *subscriber) {
	t.subMu.Lock()
	if i := slices.Index(t.subs, sub); i >= 0 {
		t.subs = slices.Delete(t.subs, i, i+1)
	}
	t.subMu.Unlock()
}

// subscribers returns a copy of the live set.
func (t *Tenant) subscribers() []*subscriber {
	t.subMu.Lock()
	defer t.subMu.Unlock()
	return slices.Clone(t.subs)
}

// closeSubscribers refuses further subscriptions, lets every writer
// drain what is enqueued and joins them.
func (t *Tenant) closeSubscribers() {
	t.subMu.Lock()
	t.subsClosed = true
	t.subMu.Unlock()
	subs := t.subscribers()
	for _, sub := range subs {
		sub.shut(reasonNone)
	}
	for _, sub := range subs {
		<-sub.done
	}
}

// emit is the tenant engine's sink. It runs on shard goroutines under
// the engine's sink lock: it frames the vector once and appends the
// bytes to the backlog of every subscriber live when it copied the
// set. No socket is touched here, and no tenant lock is held past the
// copy; the only wait is for a subscriber whose backlog is full,
// bounded by egressWriteDeadline. A subscriber shut since the copy
// takes nothing.
//
//superfe:hotpath
func (t *Tenant) emit(v feature.Vector) {
	t.vecsOut.Add(1)
	t.subMu.Lock()
	subs := append(t.emitSubs[:0], t.subs...)
	t.subMu.Unlock()
	t.emitSubs = subs
	if len(subs) == 0 {
		return
	}
	t.enc = appendVectorFrame(t.enc[:0], &v)
	var n uint64
	for _, sub := range subs {
		if sub.enqueue(t.enc, 1) {
			n++
		}
	}
	t.egress.enqueued.Add(n)
	clear(subs) // retain no departed subscriber until the next vector
}
