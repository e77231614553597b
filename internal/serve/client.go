package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"

	"superfe/internal/feature"
	"superfe/internal/gpv"
	"superfe/internal/packet"
)

// ErrRemote wraps a FrameError the server sent; errors.Is matches it
// and the message carries the server's text.
var ErrRemote = errors.New("serve: server error")

// Client speaks the ingest protocol: one connection, bound to one
// tenant by Hello, then used either to feed packets (SendPackets +
// Flush) or to consume the tenant's vector stream (Subscribe +
// NextVector). Not safe for concurrent use.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	fr   *gpv.FrameReader
	// scratch buffers reused across calls: payload for packet records,
	// frame for the framed bytes, vals for NextVector's Values.
	payload []byte
	frame   []byte
	vals    []float64
}

// newClient wraps an established connection; nothing is sent yet.
func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, bw: bufio.NewWriter(conn), fr: gpv.NewFrameReader(bufio.NewReader(conn))}
}

// Dial connects to a serve listener ("unix" or "tcp") and binds the
// connection to the tenant.
func Dial(network, addr, tenant string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	c := newClient(conn)
	if err := c.send(FrameHello, []byte(tenant)); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.awaitOK(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// send frames and writes one message, flushing the buffered writer.
func (c *Client) send(kind uint8, payload []byte) error {
	frame, err := gpv.AppendFrame(c.frame[:0], kind, payload)
	c.frame = frame
	if err != nil {
		return err
	}
	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	return c.bw.Flush()
}

// awaitOK reads the next frame and demands FrameOK, turning a
// FrameError into an ErrRemote.
func (c *Client) awaitOK() error {
	kind, payload, err := c.fr.Next()
	if err != nil {
		return err
	}
	switch kind {
	case FrameOK:
		return nil
	case FrameError:
		return fmt.Errorf("%w: %s", ErrRemote, payload)
	default:
		return fmt.Errorf("serve: unexpected frame kind %d awaiting ack", kind)
	}
}

// SendPackets streams a batch of packets to the tenant, splitting it
// across frames as needed to respect the frame payload bound. There
// is no per-batch acknowledgement; call Flush to synchronize.
func (c *Client) SendPackets(pkts []packet.Packet) error {
	const perFrame = gpv.MaxFramePayload / PacketWireBytes
	for len(pkts) > 0 {
		n := min(len(pkts), perFrame)
		c.payload = c.payload[:0]
		for i := range pkts[:n] {
			c.payload = AppendPacket(c.payload, &pkts[i])
		}
		if err := c.send(FramePackets, c.payload); err != nil {
			return err
		}
		pkts = pkts[n:]
	}
	return nil
}

// Flush asks the tenant to flush its engine and waits for the ack:
// when Flush returns, every packet this client sent has been
// extracted and every resident group's vector emitted.
func (c *Client) Flush() error {
	if err := c.send(FrameFlush, nil); err != nil {
		return err
	}
	return c.awaitOK()
}

// Subscribe turns the connection into the tenant's vector stream;
// read it with NextVector. The connection cannot send afterwards.
func (c *Client) Subscribe() error {
	if err := c.send(FrameSubscribe, nil); err != nil {
		return err
	}
	return c.awaitOK()
}

// NextVector reads one vector from a subscribed connection. Like a
// feature.Sink argument, the vector's Values are valid only until the
// next NextVector call — copy them to retain. It returns io.EOF when
// the server closes the stream cleanly, and an ErrRemote naming the
// reason when the server disconnects a subscriber that fell behind.
func (c *Client) NextVector() (feature.Vector, error) {
	kind, payload, err := c.fr.Next()
	if err != nil {
		return feature.Vector{}, err
	}
	switch kind {
	case FrameVector:
		v, err := DecodeVectorInto(c.vals, payload)
		if err != nil {
			return feature.Vector{}, err
		}
		c.vals = v.Values
		return v, nil
	case FrameError:
		return feature.Vector{}, fmt.Errorf("%w: %s", ErrRemote, payload)
	default:
		return feature.Vector{}, fmt.Errorf("serve: unexpected frame kind %d on vector stream", kind)
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
