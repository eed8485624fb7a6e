package obwire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/serve"
)

// Client is one obwire connection, built for single-goroutine use —
// loadgen runs one per client goroutine, which is the natural shape for
// a persistent pipelined transport. Send enqueues a frame, Recv returns
// the next response (the server answers in request order, verified by
// the echoed frame id), and Do is the depth-1 convenience. Pipelining is
// the caller's window: keep Sending until the window is full, then Recv
// to free a slot. All buffers are reused, so the steady-state send path
// allocates nothing.
//
// Do marks its frame lone (frameSendLone): nothing follows it until it
// is answered, so the server may run it on the connection's reader on
// any pool (see Server). Send's frames are plain: a window's later
// frames may be right behind them, and each must be read as it lands.
// A server that predates lone frames refuses Do's (see Framing).
type Client struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	hdr  [4]byte
	wbuf []byte
	rbuf []byte

	nextID    uint64
	nextAck   uint64
	unAcked   int
	unflushed bool // write buffered but not yet flushed
}

// Dial connects to an obwire server and performs the magic handshake.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(c)
}

// NewClient wraps an established connection, sending the opening magic.
func NewClient(c net.Conn) (*Client, error) {
	cl := &Client{
		c:    c,
		br:   bufio.NewReaderSize(c, 1<<16),
		bw:   bufio.NewWriterSize(c, 1<<16),
		wbuf: make([]byte, 0, 256),
		rbuf: make([]byte, 0, 256),
	}
	if _, err := cl.bw.WriteString(Magic); err != nil {
		c.Close()
		return nil, err
	}
	return cl, nil
}

// Close closes the connection. Responses still in flight are lost.
func (c *Client) Close() error { return c.c.Close() }

// InFlight answers how many sends await their Recv.
func (c *Client) InFlight() int { return c.unAcked }

// Send encodes and buffers one send frame, returning its frame id. The
// bytes reach the server on the next Flush or Recv — batching frames
// into one syscall is exactly the pipelining win.
func (c *Client) Send(req serve.Request) (uint64, error) {
	return c.send(frameSend, req)
}

// send encodes and buffers one frame of type typ.
func (c *Client) send(typ byte, req serve.Request) (uint64, error) {
	id := c.nextID
	c.nextID++
	c.wbuf = appendRequest(c.wbuf[:0], typ, id, req)
	if _, err := c.bw.Write(c.wbuf); err != nil {
		return 0, err
	}
	c.unAcked++
	c.unflushed = true
	return id, nil
}

// Flush pushes buffered frames to the wire.
func (c *Client) Flush() error {
	c.unflushed = false
	return c.bw.Flush()
}

// Recv flushes any buffered sends, then reads the next response — the
// oldest unanswered send, by the server's ordering guarantee. A response
// whose frame id does not match that ordering is a protocol violation.
func (c *Client) Recv() (Response, error) {
	if c.unAcked == 0 {
		return Response{}, fmt.Errorf("obwire: Recv with no send in flight")
	}
	if c.unflushed {
		if err := c.Flush(); err != nil {
			return Response{}, err
		}
	}
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return Response{}, err
	}
	n := int(binary.LittleEndian.Uint32(c.hdr[:]))
	if n < 1 || n > DefaultMaxFrame {
		return Response{}, fmt.Errorf("obwire: response frame length %d", n)
	}
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, 0, n)
	}
	c.rbuf = c.rbuf[:n]
	if _, err := io.ReadFull(c.br, c.rbuf); err != nil {
		return Response{}, err
	}
	resp, err := decodeResponse(c.rbuf)
	if err != nil {
		return Response{}, err
	}
	if resp.ID != c.nextAck {
		return Response{}, fmt.Errorf("obwire: response id %d, want %d (responses must arrive in send order)", resp.ID, c.nextAck)
	}
	c.nextAck++
	c.unAcked--
	return resp, nil
}

// Do is the synchronous round trip: one lone send, one Recv. Only valid
// with nothing else in flight — mixing Do into an open pipeline would
// hand back some earlier send's response.
func (c *Client) Do(req serve.Request) (Response, error) {
	if c.unAcked != 0 {
		return Response{}, fmt.Errorf("obwire: Do with %d sends in flight", c.unAcked)
	}
	if _, err := c.send(frameSendLone, req); err != nil {
		return Response{}, err
	}
	return c.Recv()
}

// decodeResponse decodes one result frame payload. The error message,
// present only on non-OK statuses, is the single allocation.
func decodeResponse(b []byte) (Response, error) {
	d := dec{b: b}
	if t := d.u8(); t != frameResult && !d.bad {
		return Response{}, fmt.Errorf("obwire: unknown response frame type 0x%02x", t)
	}
	r := Response{
		ID:     d.u64(),
		Status: d.u8(),
		Value:  d.word(),
	}
	r.Worker = d.u32()
	r.Steps = d.u64()
	r.Cycles = d.u64()
	r.Latency = time.Duration(d.u64())
	r.Err = string(d.bytes(int(d.u16())))
	if err := d.done(); err != nil {
		return Response{}, err
	}
	return r, nil
}
