package obwire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/word"
)

// Options tunes a Server. The zero value serves with the defaults and no
// span sinks.
type Options struct {
	// MaxFrame caps a frame payload in bytes; DefaultMaxFrame when 0. A
	// length prefix beyond the cap is a protocol error: the connection
	// is poisoned before a single payload byte is read.
	MaxFrame int
	// Window caps in-flight frames per connection; DefaultWindow when 0.
	// The reader parks at the cap, so a runaway pipeliner is throttled
	// by TCP backpressure rather than unbounded server memory.
	Window int
	// DecodeLat and EncodeLat, when set, receive the per-frame decode
	// and encode+write spans — obarchd passes its existing /stats
	// histograms so both transports share one family.
	DecodeLat *stats.ConcurrentHistogram
	EncodeLat *stats.ConcurrentHistogram
	// Logf, when set, receives connection-level diagnostics (protocol
	// errors, accept failures). Per-frame refusals are not logged; they
	// are answered in-band and counted by the pool like HTTP refusals.
	Logf func(format string, v ...any)
	// DrainGrace is how long Shutdown lets each reader keep consuming
	// frames already on the wire before it stops accepting more;
	// DefaultDrainGrace when 0. Kicking readers off the socket
	// immediately would strand frames a pipelining client had already
	// sent — and closing with unread data RSTs the connection, clobbering
	// even the responses already flushed back.
	DrainGrace time.Duration
}

// DefaultDrainGrace bounds how long a draining reader waits for in-transit
// frames to land. Long enough for anything already written by a client to
// cross a real network; short enough that shutdown stays snappy.
const DefaultDrainGrace = 200 * time.Millisecond

// Stats is a point-in-time snapshot of the transport counters, exported
// by obarchd into the /stats "binary" block and the obarch_binary_*
// Prometheus family.
type Stats struct {
	ConnsAccepted uint64 `json:"conns_accepted"`
	ConnsActive   uint64 `json:"conns_active"`
	FramesIn      uint64 `json:"frames_in"`
	FramesLone    uint64 `json:"frames_lone"`
	FramesOut     uint64 `json:"frames_out"`
	FramesInline  uint64 `json:"frames_inline"`
	Pings         uint64 `json:"pings"`
	ProtoErrors   uint64 `json:"proto_errors"`
}

// Server accepts obwire connections and feeds their frames to a
// serve.Pool. Every connection runs one reader goroutine and one writer
// goroutine, and a send frame takes one of two lanes:
//
//   - Inline: when the lane is open to the frame and the frame is the
//     only work on its connection — nothing more buffered behind it, no
//     answer outstanding — the reader runs it on the idle shard
//     (serve.Pool.Start) and encodes, writes and flushes the answer
//     itself. A depth-1 send costs one server goroutine instead of three.
//   - Pipelined: every other frame, and a lone frame whose shard is busy,
//     goes reader → pool queue → ordered in-flight channel → writer
//     (await future → encode → write), many requests deep.
//
// An inline send holds its connection's reader, so a frame that arrives
// behind it is read only once it ends. The lane is open where that costs
// nothing: to every frame on a one-worker pool, where the frame behind
// could not have run before the shard freed up anyway, and to a lone
// frame (frameSendLone) on any pool, whose caller sends nothing behind
// it until it is answered. A plain frame to a multi-worker pool stays
// pipelined: a pipelining caller's next frame, or another caller's on a
// shared connection, may be right behind it and could have started at
// once on another shard.
//
// Either way responses go out in request order: the reader may touch the
// connection's write buffer only while the writer has nothing
// outstanding (see connWriter), so an inline answer never overtakes a
// pipelined one.
type Server struct {
	pool   *serve.Pool
	ln     net.Listener
	opts   Options
	inline bool // the inline lane is open to every frame: the pool has one worker

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	closed atomic.Bool
	wg     sync.WaitGroup

	connsAccepted atomic.Uint64
	connsActive   atomic.Int64
	framesIn      atomic.Uint64
	framesLone    atomic.Uint64
	framesOut     atomic.Uint64
	framesInline  atomic.Uint64
	pings         atomic.Uint64
	protoErrors   atomic.Uint64
}

// Serve starts accepting obwire connections on l, serving them from
// pool, and returns immediately; Shutdown stops it. The listener is
// owned by the Server from here on.
func Serve(l net.Listener, pool *serve.Pool, opts Options) *Server {
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = DefaultMaxFrame
	}
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	if opts.DrainGrace <= 0 {
		opts.DrainGrace = DefaultDrainGrace
	}
	s := &Server{pool: pool, ln: l, opts: opts, inline: pool.Workers() == 1, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr answers the listener's address — handy when it was bound to :0.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Stats snapshots the transport counters. FramesIn counts send frames
// decoded and dispatched, FramesLone the lone ones among them, the only
// ones the inline lane is open to on a multi-worker pool; FramesOut
// counts answers placed in a write buffer (each before the flush that
// sends it, so a client holding its answer always sees it counted);
// FramesInline counts the answers the reader produced on the inline
// lane. The loads run against the order the counters tick, so a
// snapshot always has FramesInline <= FramesOut <= FramesIn.
func (s *Server) Stats() Stats {
	active := s.connsActive.Load()
	if active < 0 {
		active = 0
	}
	inline := s.framesInline.Load()
	out := s.framesOut.Load()
	return Stats{
		ConnsAccepted: s.connsAccepted.Load(),
		ConnsActive:   uint64(active),
		FramesIn:      s.framesIn.Load(),
		FramesLone:    s.framesLone.Load(),
		FramesOut:     out,
		FramesInline:  inline,
		Pings:         s.pings.Load(),
		ProtoErrors:   s.protoErrors.Load(),
	}
}

// Shutdown closes the accept loop and drains live connections: each
// reader gets DrainGrace to finish consuming frames already in transit
// (then its blocking read is cut off), already-dispatched frames are
// answered and flushed, and the writers close their connections. If ctx
// expires first the stragglers are closed hard.
func (s *Server) Shutdown(ctx context.Context) {
	s.closed.Store(true)
	s.ln.Close()
	deadline := time.Now().Add(s.opts.DrainGrace)
	s.mu.Lock()
	for c := range s.conns {
		// Not time.Now(): frames a client pipelined before the drain may
		// still be in the socket buffer, and cutting the reader off this
		// instant would strand them — the close-with-unread-data RST then
		// destroys even the answers already flushed.
		c.SetReadDeadline(deadline)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

func (s *Server) logf(format string, v ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, v...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return
			}
			s.logf("obwire: accept: %v", err)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsAccepted.Add(1)
		s.connsActive.Add(1)
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// pending is one dispatched frame awaiting its response write. A ping
// has no future; the writer answers it with a pong in its queued order,
// which is exactly what makes a pong a proof of loop liveness.
type pending struct {
	id   uint64
	fut  *serve.Future
	ping bool
}

// connWriter is a connection's response half: the buffered writer, the
// one reusable encode buffer, and the sticky write-failure flag. It is
// owned by whichever goroutine may write, and ownership passes through
// outstanding, the count of frames handed to the writer goroutine and
// not yet retired. The reader adds 1 before each hand-off; the writer
// subtracts 1 only after it has written the item — and, when the pipe
// ran dry, flushed it. The reader touches the writer only when the
// count is 0: then every earlier answer is on the wire and the writer
// goroutine is parked on the empty channel, so an inline answer can
// neither overtake nor interleave with a pipelined one. The atomic
// decrement and load order the two goroutines' buffer accesses.
type connWriter struct {
	c           net.Conn
	bw          *bufio.Writer
	buf         []byte
	broken      bool
	outstanding atomic.Int64
}

// fail marks the connection's write side broken: later answers are
// dropped rather than written, but still waited for and retired.
func (s *Server) fail(w *connWriter, err error) {
	w.broken = true
	s.logf("obwire: %s: write: %v", w.c.RemoteAddr(), err)
}

// respond encodes one answer into the write buffer and flushes it when
// asked. The answer is counted as soon as it sits in the buffer —
// before the flush that sends it — so a client holding its answer
// always finds it in FramesOut. The caller owns w.
func (s *Server) respond(w *connWriter, id uint64, res serve.Result, inline, flush bool) {
	if w.broken {
		return
	}
	t0 := time.Now()
	w.buf = appendResponse(w.buf[:0], id, res)
	if _, err := w.bw.Write(w.buf); err != nil {
		s.fail(w, err)
		return
	}
	s.framesOut.Add(1)
	if inline {
		s.framesInline.Add(1)
	}
	if flush {
		if err := w.bw.Flush(); err != nil {
			s.fail(w, err)
		}
	}
	if s.opts.EncodeLat != nil {
		s.opts.EncodeLat.Observe(time.Since(t0))
	}
}

// serveConn is the per-connection reader half of the read→dispatch→write
// loop: validate the magic, then read frames, decode them, and either
// answer a send frame that is the only work on the connection inline or
// hand the pool futures to the writer in order. Any protocol error stops
// the reading — poisoning exactly this connection — while the writer
// drains and answers everything already dispatched.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.connsActive.Add(-1)
	}()

	// A connection accepted in the same instant Shutdown swept the conn
	// map would never have been handed a drain deadline — give it one
	// here so it cannot hold the drain open past the grace.
	if s.closed.Load() {
		c.SetReadDeadline(time.Now().Add(s.opts.DrainGrace))
	}

	w := &connWriter{c: c, bw: bufio.NewWriterSize(c, 1<<16), buf: make([]byte, 0, 256)}
	pend := make(chan pending, s.opts.Window)
	writerDone := make(chan struct{})
	go s.writeLoop(w, pend, writerDone)

	br := bufio.NewReaderSize(c, 1<<16)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil || string(hdr[:]) != Magic {
		if err == nil {
			s.protoErrors.Add(1)
			s.logf("obwire: %s: bad magic %q", c.RemoteAddr(), hdr[:])
		}
		close(pend)
		<-writerDone
		return
	}

	// Per-connection reusable state: the frame buffer grows to the
	// largest frame seen and stays; selectors are interned so repeat
	// sends of the same message cost no allocation.
	buf := make([]byte, 0, 512)
	sels := make(map[string]string, 64)

	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// EOF is the client hanging up; a deadline during Shutdown
			// is the drain kicking us out. Neither is a protocol error.
			if err != io.EOF && !s.closed.Load() {
				s.protoErrors.Add(1)
				s.logf("obwire: %s: read: %v", c.RemoteAddr(), err)
			}
			break
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n < 1 || n > s.opts.MaxFrame {
			s.protoErrors.Add(1)
			s.logf("obwire: %s: frame length %d outside (0, %d]", c.RemoteAddr(), n, s.opts.MaxFrame)
			break
		}
		if cap(buf) < n {
			buf = make([]byte, 0, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			if !s.closed.Load() {
				s.protoErrors.Add(1)
				s.logf("obwire: %s: truncated frame: %v", c.RemoteAddr(), err)
			}
			break
		}

		if len(buf) == 9 && buf[0] == framePing {
			s.pings.Add(1)
			w.outstanding.Add(1)
			pend <- pending{id: binary.LittleEndian.Uint64(buf[1:]), ping: true}
			continue
		}

		t0 := time.Now()
		id, req, lone, err := s.decodeRequest(buf, sels)
		if s.opts.DecodeLat != nil {
			s.opts.DecodeLat.Observe(time.Since(t0))
		}
		if err != nil {
			s.protoErrors.Add(1)
			s.logf("obwire: %s: %v", c.RemoteAddr(), err)
			break
		}
		s.framesIn.Add(1)
		if lone {
			s.framesLone.Add(1)
		}

		// Submission never waits on a queue: a full queue or in-flight
		// ceiling completes the future immediately with ErrOverloaded,
		// which the writer answers as StatusOverloaded — the same
		// admission story as HTTP, over a cheaper wire.
		var fut *serve.Future
		if (s.inline || lone) && w.outstanding.Load() == 0 && br.Buffered() == 0 && !s.closed.Load() {
			// Inline lane: the frame is the only work on the connection.
			// Start runs it only on an idle shard and otherwise queues
			// it, so the reader is never parked behind work it could
			// have read past. A draining server stays pipelined so the
			// reader keeps consuming frames through the grace window.
			var res serve.Result
			if res, fut = s.pool.Start(req); fut == nil {
				s.respond(w, id, res, true, true)
				// Shutdown may have set the drain deadline while this
				// send ran, eating the grace the reader needs for frames
				// that landed meanwhile; grant it once more.
				if s.closed.Load() {
					c.SetReadDeadline(time.Now().Add(s.opts.DrainGrace))
				}
				continue
			}
		} else {
			fut = s.pool.Go(req)
		}
		w.outstanding.Add(1)
		pend <- pending{id: id, fut: fut}
	}
	close(pend)
	<-writerDone
}

// decodeRequest decodes one send frame and reports whether it is lone.
// The selector is interned in sels — stable across the connection, so
// steady-state traffic never allocates for it; args, when present, cost
// one slice (they outlive the frame buffer in the pool's queue).
func (s *Server) decodeRequest(b []byte, sels map[string]string) (uint64, serve.Request, bool, error) {
	d := dec{b: b}
	t := d.u8()
	if t != frameSend && t != frameSendLone && !d.bad {
		return 0, serve.Request{}, false, fmt.Errorf("obwire: unknown frame type 0x%02x", t)
	}
	id := d.u64()
	req := serve.Request{
		Receiver: d.word(),
		Key:      d.u64(),
		MaxSteps: d.u64(),
		Timeout:  time.Duration(d.u64()),
	}
	selRaw := d.bytes(int(d.u16()))
	nargs := int(d.u16())
	if nargs > 0 {
		args := make([]word.Word, nargs)
		for i := range args {
			args[i] = d.word()
		}
		req.Args = args
	}
	if err := d.done(); err != nil {
		return 0, serve.Request{}, false, err
	}
	if len(selRaw) == 0 {
		return 0, serve.Request{}, false, errEmptySelector
	}
	sel, ok := sels[string(selRaw)]
	if !ok {
		sel = string(selRaw)
		if len(sels) < 4096 { // bound a hostile selector flood
			sels[sel] = sel
		}
	}
	req.Selector = sel
	return id, req, t == frameSendLone, nil
}

// writeLoop is the writer half: await each dispatched future in order,
// encode its response into the connection's reusable buffer, and write
// it out, flushing only when the pipeline runs dry — pipelined clients
// get batched syscalls for free. Each item is retired from outstanding
// only once written (and flushed, if it was the last), which is what
// hands the writer back to the reader's inline lane. A write error stops
// writing but not waiting: the loop keeps draining futures so the reader
// can finish and pooled result cells are always recycled.
func (s *Server) writeLoop(w *connWriter, pend <-chan pending, done chan<- struct{}) {
	defer close(done)
	defer w.c.Close()
	for p := range pend {
		if p.ping {
			if !w.broken {
				w.buf = appendPong(w.buf[:0], p.id)
				_, err := w.bw.Write(w.buf)
				if err == nil && len(pend) == 0 {
					err = w.bw.Flush()
				}
				if err != nil {
					s.fail(w, err)
				}
			}
		} else {
			s.respond(w, p.id, p.fut.Wait(), false, len(pend) == 0)
		}
		w.outstanding.Add(-1)
	}
	if !w.broken {
		w.bw.Flush()
	}
}

var errEmptySelector = errors.New("obwire: empty selector")
