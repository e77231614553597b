package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"

	"superfe/internal/apps"
	"superfe/internal/gpv"
	"superfe/internal/packet"
	"superfe/internal/policy"
)

// Server errors.
var (
	// ErrServerClosed is returned by operations on a shut-down server
	// and by Serve when Shutdown closes the listener under it.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrUnknownTenant marks an operation naming a tenant that is not
	// in the registry.
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	// ErrTenantExists marks a StartTenant under a taken name.
	ErrTenantExists = errors.New("serve: tenant already exists")
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the default shard count per tenant engine (tenants
	// may override it at creation). Zero means 2.
	Workers int
	// Resolve maps a policy name to a fresh policy instance; nil means
	// ResolveCatalog (the bundled Table 3 applications).
	Resolve func(name string) (*policy.Policy, error)
}

// ResolveCatalog resolves a policy name against the bundled
// application catalog, case-insensitively.
func ResolveCatalog(name string) (*policy.Policy, error) {
	for _, e := range apps.Catalog() {
		if strings.EqualFold(e.Name, name) {
			return e.Build(), nil
		}
	}
	return nil, fmt.Errorf("serve: unknown policy %q", name)
}

// Server is the resident multi-tenant deployment: a tenant registry,
// any number of ingest/subscription listeners, and the admin HTTP
// surface (see AdminHandler). All methods are safe from any
// goroutine.
type Server struct {
	cfg Config

	mu      sync.Mutex
	tenants map[string]*Tenant
	lns     map[net.Listener]struct{}
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
}

// New returns an empty server. Tenants are added with StartTenant;
// listeners attach with Serve.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Resolve == nil {
		cfg.Resolve = ResolveCatalog
	}
	return &Server{
		cfg:     cfg,
		tenants: make(map[string]*Tenant),
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
}

// StartTenant resolves the policy, gates it through planvet/planprove
// and deploys a new tenant. workers <= 0 uses the server default. The
// returned report is the planvet cost report whenever the candidate
// compiled — on ErrReloadRejected it carries the findings.
func (s *Server) StartTenant(name, polName string, workers int) (*Tenant, string, error) {
	if name == "" {
		return nil, "", fmt.Errorf("serve: empty tenant name")
	}
	pol, err := s.cfg.Resolve(polName)
	if err != nil {
		return nil, "", err
	}
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, "", ErrServerClosed
	}
	if _, ok := s.tenants[name]; ok {
		s.mu.Unlock()
		return nil, "", fmt.Errorf("%w: %s", ErrTenantExists, name)
	}
	// Reserve the name before the (compile-heavy) deployment so two
	// concurrent creates cannot both build engines.
	s.tenants[name] = nil
	s.mu.Unlock()

	t, report, err := newTenant(name, polName, pol, workers)
	s.mu.Lock()
	if err != nil {
		delete(s.tenants, name)
	} else {
		s.tenants[name] = t
	}
	s.mu.Unlock()
	return t, report, err
}

// Tenant looks a live tenant up by name.
func (s *Server) Tenant(name string) (*Tenant, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	return t, ok && t != nil
}

// Tenants returns the live tenants sorted by name.
func (s *Server) Tenants() []*Tenant {
	s.mu.Lock()
	out := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t != nil {
			out = append(out, t)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// StopTenant drains and removes one tenant.
func (s *Server) StopTenant(name string) error {
	t, ok := s.Tenant(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTenant, name)
	}
	err := t.Stop()
	s.mu.Lock()
	delete(s.tenants, name)
	s.mu.Unlock()
	return err
}

// Serve accepts ingest/subscription connections on ln until the
// listener fails or Shutdown closes it. Each connection is handled on
// its own goroutine. Serve returns ErrServerClosed after Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		//superfe:goroutine-ok per-connection handler: exits when the peer closes or Shutdown closes the connection (the frame reader returns an error either way) and is joined through s.wg
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Shutdown gracefully drains the service: stop accepting, stop every
// tenant (flushing resident state to its subscribers), then close the
// remaining connections and join their handlers. It returns the first
// tenant drain error.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.closed = true
	lns := make([]net.Listener, 0, len(s.lns))
	for ln := range s.lns {
		lns = append(lns, ln)
	}
	tenants := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t != nil {
			tenants = append(tenants, t)
		}
	}
	s.tenants = make(map[string]*Tenant)
	s.mu.Unlock()

	for _, ln := range lns {
		ln.Close()
	}
	var first error
	for _, t := range tenants {
		if err := t.Stop(); err != nil && first == nil {
			first = err
		}
	}
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return first
}

// handleConn speaks the ingest protocol on one connection: a
// FrameHello binding first, then any mix of FramePackets, FrameFlush
// and FrameSubscribe until EOF. Protocol errors answer FrameError and
// close the connection; a clean EOF just closes it.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	fr := gpv.NewFrameReader(bufio.NewReader(conn))

	// reply sends one control frame, framed in a buffer the connection
	// reuses: straight to the socket until the connection subscribes,
	// through the subscriber's backlog afterwards — its writer owns the
	// write side and the ordering against vectors.
	var sub *subscriber
	var scratch []byte
	var pkts []packet.Packet
	reply := func(kind uint8, payload []byte) error {
		frame, err := gpv.AppendFrame(scratch[:0], kind, payload)
		scratch = frame
		if err != nil {
			return err
		}
		if sub != nil {
			if !sub.enqueue(frame, 0) {
				return net.ErrClosed
			}
			return nil
		}
		_, err = conn.Write(frame)
		return err
	}
	// fail answers a fatal error; the connection closes on return. The
	// write's own error has nowhere to go.
	fail := func(msg string) { _ = reply(FrameError, []byte(msg)) }

	kind, payload, err := fr.Next()
	if err != nil {
		return
	}
	if kind != FrameHello {
		fail(fmt.Sprintf("expected hello frame, got kind %d", kind))
		return
	}
	t, ok := s.Tenant(string(payload))
	if !ok {
		fail(fmt.Sprintf("unknown tenant %q", payload))
		return
	}
	if err := reply(FrameOK, nil); err != nil {
		return
	}

	// A subscribed connection that the handler ends itself (a protocol
	// error it has just answered) drains before closing; one whose read
	// side ended is the peer's doing.
	reason := reasonNone
	defer func() {
		if sub != nil {
			// A no-op when the writer has already shut the stream.
			sub.shut(reason)
			<-sub.done
		}
	}()
	for {
		kind, payload, err := fr.Next()
		if err != nil {
			// io.EOF is the clean close; anything else (truncation,
			// garbage) is the peer's problem — the connection is
			// already unusable, so just drop it. When the subscriber's
			// writer closed the connection under this read, its reason
			// was recorded first and stands.
			reason = reasonPeerClosed
			return
		}
		switch kind {
		case FramePackets:
			// Decode into the connection's reused batch and route it on
			// this goroutine, under the tenant lock.
			if pkts, err = DecodePackets(pkts[:0], payload); err != nil {
				fail(err.Error())
				return
			}
			if err := t.Ingest(pkts); err != nil {
				fail(err.Error())
				return
			}
		case FrameFlush:
			if err := t.Flush(); err != nil {
				fail(err.Error())
				return
			}
			if err := reply(FrameOK, nil); err != nil {
				return
			}
		case FrameSubscribe:
			if sub != nil {
				fail("already subscribed")
				return
			}
			if sub, err = t.subscribe(conn); err != nil {
				fail(err.Error())
				return
			}
		default:
			fail(fmt.Sprintf("unexpected frame kind %d", kind))
			return
		}
	}
}
