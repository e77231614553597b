package serve

import (
	"errors"
	"fmt"
	"io"
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
	op      tenantOp
	pkts    []packet.Packet
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

	// mu guards stopped (the send gate: senders hold it shared while
	// enqueueing, Stop takes it exclusively to flip the flag, so no
	// command can be enqueued after the opStop that ends the loop) and
	// the mutable identity fields below.
	mu         sync.RWMutex
	stopped    bool
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

	// subMu guards the subscriber set; emit holds it while fanning an
	// emitted vector out, which also serializes subscriber writes.
	subMu sync.Mutex
	subs  map[*subscriber]struct{}

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
	rep := planvet.Check(planvet.DefaultModel(), pol.Name(), plan)
	if !rep.Feasible() || len(rep.Proof.Unwaived(apps.Waivers())) > 0 {
		return nil, rep.String(), fmt.Errorf("%w: %s", ErrReloadRejected, pol.Name())
	}
	return plan, rep.String(), nil
}

// newTenant vets the policy, deploys the vetted plan and starts the
// command loop. The engine streams vectors (DeterministicMerge off)
// into the tenant's subscriber fan-out; telemetry is always on so the
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
		subs:       make(map[*subscriber]struct{}),
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
			for i := range cmd.pkts {
				t.eng.Process(&cmd.pkts[i])
			}
			t.pktsIn.Add(uint64(len(cmd.pkts)))
			t.pool.Put(&cmd.pkts)
		case opFlush:
			cmd.err <- t.eng.Flush()
		case opReload:
			cmd.reply <- t.applyReload(cmd.polName, cmd.pol)
		case opStop:
			// Graceful drain: emit everything resident, then retire the
			// workers. Queued commands cannot follow (the send gate
			// closed before opStop was enqueued).
			err := t.eng.Flush()
			if cerr := t.eng.Close(); err == nil {
				err = cerr
			}
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
		t.mu.Lock()
		t.lastReject = polName
		t.mu.Unlock()
		return reloadResult{Report: report, Err: err}
	}
	if err := t.eng.SwapPlan(plan); err != nil {
		t.rejected.Add(1)
		return reloadResult{Report: report, Err: err}
	}
	t.reloads.Add(1)
	t.mu.Lock()
	t.polName = polName
	t.featureDim = pol.FeatureDim()
	t.mu.Unlock()
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
	return t.send(tenantCmd{op: opIngest, pkts: append(t.batch(), pkts...)})
}

// batch returns an empty packet slice from the pool (nil when the pool
// is dry) for the caller to fill and send as an opIngest, which passes
// its ownership to the command loop.
func (t *Tenant) batch() []packet.Packet {
	if p, ok := t.pool.Get().(*[]packet.Packet); ok {
		return (*p)[:0]
	}
	return nil
}

// Flush drains the tenant's engine and blocks until every queued
// packet has been extracted and every resident group evicted — the
// service-level sync point.
func (t *Tenant) Flush() error {
	reply := make(chan error, 1)
	if err := t.send(tenantCmd{op: opFlush, err: reply}); err != nil {
		return err
	}
	return <-reply
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

// Stop flushes, retires the engine and ends the command loop. Every
// operation after Stop returns ErrTenantStopped.
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
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.polName
}

// Info assembles the tenant's admin listing row.
func (t *Tenant) Info() TenantInfo {
	t.mu.RLock()
	polName, dim, lastReject := t.polName, t.featureDim, t.lastReject
	t.mu.RUnlock()
	t.subMu.Lock()
	subs := len(t.subs)
	t.subMu.Unlock()
	return TenantInfo{
		Name:            t.name,
		Policy:          polName,
		Workers:         t.workers,
		FeatureDim:      dim,
		Health:          t.eng.Status().Health,
		Pkts:            t.pktsIn.Load(),
		Vectors:         t.vecsOut.Load(),
		Subscribers:     subs,
		Reloads:         t.reloads.Load(),
		RejectedReloads: t.rejected.Load(),
		LastReject:      lastReject,
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
// while the command loop runs — with the scrape and the interval
// series tagged with the tenant label and the status report carrying
// the tenant name.
func (t *Tenant) ObsSource() obs.Source {
	src := t.eng.ObsSource()
	src.Scrape = func() *obs.Snapshot { return t.eng.ObsScrape().Tagged("tenant", t.name) }
	src.Series = func() *obs.Series { return t.eng.ObsSeries().Tagged("tenant", t.name) }
	src.Status = t.Status
	return src
}

// subscriber is one vector output stream: a connection the tenant's
// emit fan-out writes FrameVector frames to. Buffers are reused
// across vectors; writes are serialized by subMu.
type subscriber struct {
	w       io.Writer
	payload []byte
	frame   []byte
	err     error
}

// subscribe acknowledges a FrameSubscribe on w and registers w as a
// vector output stream, in one subMu critical section: emit fans out
// under the same lock, so the ack strictly precedes the first
// FrameVector and no vector emitted after the ack is missed.
func (t *Tenant) subscribe(w io.Writer) (*subscriber, error) {
	sub := &subscriber{w: w}
	t.subMu.Lock()
	defer t.subMu.Unlock()
	if err := writeFrame(w, FrameOK, nil); err != nil {
		return nil, err
	}
	t.subs[sub] = struct{}{}
	return sub, nil
}

// unsubscribe removes the stream; safe to call twice.
func (t *Tenant) unsubscribe(sub *subscriber) {
	t.subMu.Lock()
	delete(t.subs, sub)
	t.subMu.Unlock()
}

// emit is the tenant engine's sink: it fans each emitted vector out
// to every live subscriber. It runs on shard goroutines under the
// engine's sink lock; a subscriber whose transport fails is dropped
// and its connection reader observes the error.
func (t *Tenant) emit(v feature.Vector) {
	t.vecsOut.Add(1)
	t.subMu.Lock()
	for sub := range t.subs {
		sub.payload = AppendVector(sub.payload[:0], &v)
		frame, err := gpv.AppendFrame(sub.frame[:0], FrameVector, sub.payload)
		sub.frame = frame
		if err == nil {
			_, err = sub.w.Write(frame)
		}
		if err != nil {
			sub.err = err
			delete(t.subs, sub)
		}
	}
	t.subMu.Unlock()
}
