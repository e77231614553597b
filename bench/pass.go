package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"superfe/internal/core"
	"superfe/internal/obs"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/serve"
)

// frameRows is the ingest client's frame size on the serve workload
// (the CLI's `superfe ingest` default).
const frameRows = 512

// subscriberWait bounds how long a pass waits, after its Flush was
// acknowledged, for vectors that were written to the socket before
// the acknowledgement. Reaching it fails the pass.
const subscriberWait = 10 * time.Second

// passResult is one cold pass: a fresh deployment fed the whole trace
// and flushed.
type passResult struct {
	wall, drain, cpu time.Duration
	mallocs          uint64
	vectors, dims    uint64
	// frameErrs counts FrameError answers; such a pass delivers fewer
	// vectors than expected and is counted failed.
	frameErrs uint64
	startup   time.Duration // deploy (or tenant start + two dials), untimed
	// memrefNS is the reference memory kernel's time per operation,
	// averaged over the readings taken just before and just after the
	// pass.
	memrefNS float64
}

// engineOptions is the deployment every in-process pass uses:
// defaults, one shard unless a rung says otherwise.
func engineOptions(workers int, obsOn bool) core.ParallelOptions {
	o := core.DefaultParallelOptions()
	o.Workers = workers
	if obsOn {
		o.Obs = obs.DefaultOptions()
		o.Obs.Enabled = true
	}
	return o
}

// window measures the timed part of a pass from outside: wall clock,
// process CPU time and heap allocations.
type window struct {
	t0      time.Time
	cpu0    time.Duration
	mallocs uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func openWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{mallocs: ms.Mallocs, cpu0: cpuTime(), t0: time.Now()}
}

func (w window) close(fed time.Time, r *passResult) {
	end := time.Now()
	r.cpu = cpuTime() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.wall, r.drain, r.mallocs = end.Sub(w.t0), end.Sub(fed), ms.Mallocs-w.mallocs
}

// parallelPass is the in-process front door: deploy a fresh
// ParallelEngine (untimed), then feed, Flush and account (timed).
// beforeFlush, when set, runs with every group still resident.
func parallelPass(opts core.ParallelOptions, pol *policy.Policy, pkts []packet.Packet, sink *tally, beforeFlush func()) (passResult, error) {
	var r passResult
	runtime.GC()
	d0 := time.Now()
	pe, err := core.NewParallel(opts, pol, sink.add)
	if err != nil {
		return r, err
	}
	defer pe.Close()
	r.startup = time.Since(d0)

	w := openWindow()
	for i := range pkts {
		pe.Process(&pkts[i])
	}
	fed := time.Now()
	if beforeFlush != nil {
		pe.Drain()
		beforeFlush()
	}
	if err := pe.Flush(); err != nil {
		return r, err
	}
	w.close(fed, &r)
	r.vectors, r.dims = sink.n, sink.dims
	return r, pe.Err()
}

// service is the in-process serve.Server the serve front door talks to
// over a real TCP loopback listener — host loopback, no real link.
type service struct {
	srv   *serve.Server
	addr  string
	wg    sync.WaitGroup
	seq   int
	errCh chan error
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{srv: serve.New(serve.Config{Workers: 1}), addr: ln.Addr().String(), errCh: make(chan error, 1)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.errCh <- s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *service) stop() error {
	err := s.srv.Shutdown()
	s.wg.Wait()
	if serr := <-s.errCh; !errors.Is(serr, serve.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// pass is the service front door: a fresh tenant and two connections
// (untimed), then 512-packet frames in on one, vectors out on the
// other, with Flush as the barrier (timed). beforeFlush, when set,
// runs after the last frame was sent, which is before the tenant has
// taken them all in: a caller that needs every group resident waits
// on the tenant's packet count first.
func (s *service) pass(polName string, pkts []packet.Packet, expect uint64, sink *tally, beforeFlush func(*serve.Tenant)) (passResult, error) {
	var r passResult
	runtime.GC()
	d0 := time.Now()
	s.seq++
	name := fmt.Sprintf("pass%d", s.seq)
	tenant, report, err := s.srv.StartTenant(name, polName, 1)
	if err != nil {
		return r, fmt.Errorf("start tenant: %w\n%s", err, report)
	}
	defer s.srv.StopTenant(name)
	ingest, err := serve.Dial("tcp", s.addr, name)
	if err != nil {
		return r, fmt.Errorf("dial ingest: %w", err)
	}
	defer ingest.Close()
	sub, err := serve.Dial("tcp", s.addr, name)
	if err != nil {
		return r, fmt.Errorf("dial subscriber: %w", err)
	}
	if err := sub.Subscribe(); err != nil {
		sub.Close()
		return r, fmt.Errorf("subscribe: %w", err)
	}
	// The server acknowledges a subscription before it registers it, so
	// a vector emitted right after the ack (Kitsune emits one per
	// packet) would miss the stream; wait until the tenant lists it.
	for deadline := time.Now().Add(subscriberWait); tenant.Info().Subscribers == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			sub.Close()
			return r, fmt.Errorf("subscription not registered after %v", subscriberWait)
		}
	}
	r.startup = time.Since(d0)

	// The reader owns the sink until it exits; it exits when the
	// subscription is closed below, and the WaitGroup joins it.
	var readers sync.WaitGroup
	all := make(chan struct{})
	var readErr error
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			v, err := sub.NextVector()
			if err != nil {
				readErr = err
				return
			}
			sink.add(v)
			if sink.n == expect {
				close(all)
			}
		}
	}()
	stopReader := func() {
		sub.Close()
		readers.Wait()
	}

	w := openWindow()
	for off := 0; off < len(pkts); off += frameRows {
		if err := ingest.SendPackets(pkts[off:min(off+frameRows, len(pkts))]); err != nil {
			stopReader()
			return r, fmt.Errorf("send packets: %w", err)
		}
	}
	fed := time.Now()
	if beforeFlush != nil {
		beforeFlush(tenant)
	}
	if err := ingest.Flush(); err != nil {
		stopReader()
		if errors.Is(err, serve.ErrRemote) {
			r.frameErrs++
			return r, nil
		}
		return r, fmt.Errorf("flush: %w", err)
	}
	timeout := time.NewTimer(subscriberWait)
	select {
	case <-all:
	case <-timeout.C:
	}
	timeout.Stop()
	w.close(fed, &r)
	stopReader()
	r.vectors, r.dims = sink.n, sink.dims
	if r.vectors < expect && readErr != nil && errors.Is(readErr, serve.ErrRemote) {
		r.frameErrs++
	}
	return r, nil
}
