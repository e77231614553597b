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
	// Stop: the engine has drained and retired.
	ErrTenantStopped = errors.New("serve: tenant is stopped")
	// ErrReloadRejected marks a hot-reload candidate that failed the
	// planvet/planprove gate; the accompanying report carries the cost
	// and witness findings, and the live plan keeps serving.
	ErrReloadRejected = errors.New("serve: reload rejected by planvet")
)

// Tenant is one isolated deployment inside the service: a policy, its
// compiled plan and a dedicated engine with its own obs registries,
// fed by any number of connections and observed by any number of
// vector subscribers. All exported methods are safe from any
// goroutine.
type Tenant struct {
	name    string
	workers int
	eng     *core.Engine

	// mu guards stopped and every call into the engine's router side
	// (Process, Flush, SwapPlan, Close), which takes one caller at a
	// time: each connection's handler runs the router on its own
	// goroutine while it holds mu. Nothing emit, Info, Status or
	// ObsSource does takes it. unflushed is set when packets were
	// ingested since the engine last flushed (a Flush, or the one a
	// reload's SwapPlan runs): only then has Stop anything to emit, and
	// flushing again would deliver every resident group twice.
	mu        sync.Mutex
	stopped   bool
	unflushed bool

	// idMu guards the identity fields a reload rewrites, so Info never
	// waits behind a batch holding mu.
	idMu       sync.Mutex
	polName    string
	featureDim int
	lastReject string

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

// newTenant vets the policy and deploys the vetted plan. The engine
// streams vectors (DeterministicMerge off) into the tenant's
// subscriber backlogs; telemetry is always on so the per-tenant admin
// surface has something to serve.
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
		egress:     newEgressCounters(),
	}
	popts := core.DefaultParallelOptions()
	popts.Workers = workers
	popts.Obs.Enabled = true
	eng, err := core.NewFromPlan(popts, plan, t.emit)
	if err != nil {
		return nil, report, fmt.Errorf("serve: tenant %s: %w", name, err)
	}
	t.eng = eng
	return t, report, nil
}

// Name returns the tenant's registry name.
func (t *Tenant) Name() string { return t.name }

// Ingest extracts a batch of packets: it routes each one into the
// engine on the caller's goroutine, holding the tenant lock for the
// batch, and returns once all of them are on their shards' rings. The
// engine reads pkts only during the call, so the caller may reuse it.
func (t *Tenant) Ingest(pkts []packet.Packet) error {
	if len(pkts) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return ErrTenantStopped
	}
	for i := range pkts {
		t.eng.Process(&pkts[i])
	}
	t.unflushed = true
	t.pktsIn.Add(uint64(len(pkts)))
	return nil
}

// Flush drains the tenant's engine and blocks until every ingested
// packet has been extracted, every resident group evicted, and every
// subscriber's writer has written everything that emitted (a
// subscriber that cannot take it within egressWriteDeadline is
// disconnected and its share counted as discarded) — the service-level
// sync point. The egress half of the barrier runs after the tenant
// lock is released, so a slow subscriber holds up the caller, not the
// ingest.
func (t *Tenant) Flush() error {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return ErrTenantStopped
	}
	err := t.eng.Flush()
	t.unflushed = false
	t.mu.Unlock()
	for _, sub := range t.subscribers() {
		sub.await()
	}
	return err
}

// Reload gates the candidate policy through planvet/planprove and,
// only if it passes, swaps it in at a batch barrier. The gate runs
// outside the tenant lock, so ingest carries on while a candidate is
// proved. The returned report is the planvet cost report (populated
// whenever the candidate compiled); on ErrReloadRejected it carries
// the findings and the live plan keeps serving untouched.
func (t *Tenant) Reload(polName string, pol *policy.Policy) (string, error) {
	t.mu.Lock()
	stopped := t.stopped
	t.mu.Unlock()
	if stopped {
		return "", ErrTenantStopped
	}
	plan, report, err := vetPlan(t.name, pol)
	if err != nil {
		t.rejected.Add(1)
		t.idMu.Lock()
		t.lastReject = polName
		t.idMu.Unlock()
		return report, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return report, ErrTenantStopped
	}
	if err := t.eng.SwapPlan(plan); err != nil {
		t.rejected.Add(1)
		return report, err
	}
	t.unflushed = false
	t.reloads.Add(1)
	t.idMu.Lock()
	t.polName = polName
	t.featureDim = pol.FeatureDim()
	t.idMu.Unlock()
	return report, nil
}

// Stop drains the tenant: it emits everything resident unless nothing
// was ingested since the last flush (which emitted it already), retires
// the engine's workers, then ends every subscriber's stream once its
// writer has written what is left (joining the writer). Every
// operation after Stop returns ErrTenantStopped.
func (t *Tenant) Stop() error {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return ErrTenantStopped
	}
	t.stopped = true
	var err error
	if t.unflushed {
		err = t.eng.Flush()
	}
	if cerr := t.eng.Close(); err == nil {
		err = cerr
	}
	t.mu.Unlock()
	t.closeSubscribers()
	return err
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
// while the router runs — with the egress counters stacked onto
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
