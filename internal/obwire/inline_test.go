package obwire

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/word"
)

// rawConn drives one obwire connection frame by frame, so a test decides
// exactly which frames share a write: a frame written alone to an idle
// connection takes the inline lane, frames written together take the
// pipelined one. Every answer is checked against a FIFO of expectations.
type rawConn struct {
	t    *testing.T
	c    net.Conn
	br   *bufio.Reader
	out  []byte
	next uint64
	want []rawWant
}

// rawWant is one expected answer: a pong, or a result of val.
type rawWant struct {
	id   uint64
	ping bool
	val  int32
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	r := &rawConn{t: t, c: c, br: bufio.NewReader(c)}
	r.out = append(r.out, Magic...)
	return r
}

// send queues one plain send of answer to recv; the fixture image adds 1.
func (r *rawConn) send(recv int32) {
	r.out = appendRequest(r.out, frameSend, r.next, serve.Request{Receiver: word.FromInt(recv), Selector: "answer"})
	r.want = append(r.want, rawWant{id: r.next, val: recv + 1})
	r.next++
}

func (r *rawConn) ping() {
	r.out = appendPing(r.out, r.next)
	r.want = append(r.want, rawWant{id: r.next, ping: true})
	r.next++
}

// flush writes every queued frame in one write.
func (r *rawConn) flush() {
	r.t.Helper()
	if _, err := r.c.Write(r.out); err != nil {
		r.t.Fatalf("write: %v", err)
	}
	r.out = r.out[:0]
}

// expect reads one answer per outstanding expectation, in order.
func (r *rawConn) expect() {
	r.t.Helper()
	r.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var hdr [4]byte
	for _, w := range r.want {
		if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
			r.t.Fatalf("frame %d: read: %v", w.id, err)
		}
		b := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(r.br, b); err != nil {
			r.t.Fatalf("frame %d: read: %v", w.id, err)
		}
		if len(b) == 9 && b[0] == framePong {
			if id := binary.LittleEndian.Uint64(b[1:]); !w.ping || id != w.id {
				r.t.Fatalf("pong %d where frame %d (ping %v) was due", id, w.id, w.ping)
			}
			continue
		}
		resp, err := decodeResponse(b)
		if err != nil {
			r.t.Fatalf("frame %d: %v", w.id, err)
		}
		if w.ping || resp.ID != w.id {
			r.t.Fatalf("answer %d where frame %d (ping %v) was due", resp.ID, w.id, w.ping)
		}
		if !resp.OK() || resp.Value.Int() != w.val {
			r.t.Fatalf("frame %d: status %d value %v (%s), want %d", w.id, resp.Status, resp.Value, resp.Err, w.val)
		}
	}
	r.want = r.want[:0]
}

// waitFor polls cond until it holds, failing the test after a generous
// deadline; what it waits for is a state, never a fixed interval.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestInlineFramesCounted pins the inline lane's accounting: N depth-1
// round trips on an otherwise idle connection and pool are all answered
// by the reader itself, and under concurrent pipelined load every Stats
// snapshot keeps frames_inline <= frames_out <= frames_in.
func TestInlineFramesCounted(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 1, GCEvery: -1, Timeout: 30 * time.Second}, Options{})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 200
	for i := int32(0); i < n; i++ {
		resp, err := c.Do(serve.Request{Receiver: word.FromInt(i), Selector: "answer"})
		if err != nil || !resp.OK() || resp.Value.Int() != i+1 {
			t.Fatalf("send %d: %v %+v", i, err, resp)
		}
	}
	if st := s.Stats(); st.FramesInline != n || st.FramesIn != n || st.FramesOut != n {
		t.Fatalf("frames in/out/inline = %d/%d/%d, want %d each", st.FramesIn, st.FramesOut, st.FramesInline, n)
	}

	m, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	stop := make(chan struct{})
	var polls atomic.Int64
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.FramesInline > st.FramesOut || st.FramesOut > st.FramesIn {
				t.Errorf("snapshot out of order: frames in/out/inline = %d/%d/%d", st.FramesIn, st.FramesOut, st.FramesInline)
				return
			}
			polls.Add(1)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				recv := int32(g*1000 + i)
				if resp, err := m.Do(serve.Request{Receiver: word.FromInt(recv), Selector: "answer"}); err != nil || resp.Value.Int() != recv+1 {
					t.Errorf("mux send %d/%d: %v %+v", g, i, err, resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-pollerDone
	if polls.Load() == 0 {
		t.Fatal("the poller never sampled the counters")
	}
	if st := s.Stats(); st.FramesIn != n+400 || st.FramesOut != st.FramesIn || st.FramesInline > st.FramesIn {
		t.Fatalf("after mux load: frames in/out/inline = %d/%d/%d, want %d in and out", st.FramesIn, st.FramesOut, st.FramesInline, n+400)
	}
}

// TestLaneSwitchMixed runs one connection through every lane change:
// lone sends (inline), 64-deep bursts with pings inside them (pipelined),
// a lone send right behind a burst (the writer hands the buffer back to
// the reader), and lone pings. Every answer and every FIFO id checks.
func TestLaneSwitchMixed(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 1, Timeout: 30 * time.Second}, Options{})
	r := dialRaw(t, s.Addr().String())
	sends := uint64(0)
	for round := int32(0); round < 20; round++ {
		for i := int32(0); i < 8; i++ {
			r.send(round*1000 + i)
			r.flush()
			r.expect()
			sends++
		}
		for i := int32(0); i < 64; i++ {
			r.send(round*1000 + 100 + i)
			if i == 31 {
				r.ping()
			}
		}
		r.ping()
		r.flush()
		r.expect()
		sends += 64

		r.send(round*1000 + 500)
		r.flush()
		r.send(round*1000 + 501)
		r.flush()
		r.expect()
		sends += 2

		r.ping()
		r.flush()
		r.expect()
	}
	st := s.Stats()
	if st.FramesIn != sends || st.FramesOut != sends {
		t.Fatalf("frames in/out = %d/%d, want %d", st.FramesIn, st.FramesOut, sends)
	}
	if st.FramesInline == 0 || st.FramesInline >= st.FramesIn {
		t.Fatalf("frames_inline = %d of %d: both lanes must have carried traffic", st.FramesInline, st.FramesIn)
	}
	if st.Pings != 60 || st.ProtoErrors != 0 {
		t.Fatalf("pings %d (want 60), proto_errors %d", st.Pings, st.ProtoErrors)
	}
}

// TestLaneSwitchBusyShard proves the reader never parks on a queued
// future. A stall fault holds the only shard busy under a direct
// Pool.Do; a lone send frame then finds the shard taken and goes down
// the pipelined lane, and a ping sent after it is read while the shard
// is still stalled. Both are answered in order once the stall ends.
func TestLaneSwitchBusyShard(t *testing.T) {
	// StallEvery 2 with no seed: the pool's 2nd, 4th, ... executions stall.
	s, pool := startServer(t, serve.Config{Workers: 1, Timeout: 30 * time.Second,
		Faults: &serve.Faults{StallEvery: 2, Stall: time.Second}}, Options{})
	req := serve.Request{Receiver: word.FromInt(1), Selector: "answer"}
	if res := pool.Do(req); res.Err != nil { // execution 1: no stall
		t.Fatal(res.Err)
	}
	var holderDone atomic.Bool
	holder := make(chan serve.Result, 1)
	go func() {
		res := pool.Do(req) // execution 2: holds the shard for the stall
		holderDone.Store(true)
		holder <- res
	}()
	waitFor(t, "the stalled execution", func() bool { return pool.QueueDepths()[0] == 1 })

	r := dialRaw(t, s.Addr().String())
	r.send(41) // execution 3, once the stall ends
	r.flush()
	waitFor(t, "the send frame to be dispatched", func() bool { return s.Stats().FramesIn == 1 })
	r.ping()
	r.flush()
	waitFor(t, "the ping to be read", func() bool { return s.Stats().Pings == 1 })
	if holderDone.Load() {
		t.Fatal("ping read only after the stall ended: the reader parked behind the busy shard")
	}
	r.expect()
	if res := <-holder; res.Err != nil {
		t.Fatal(res.Err)
	}
	if st := s.Stats(); st.FramesInline != 0 || st.FramesOut != 1 {
		t.Fatalf("frames out/inline = %d/%d, want 1/0: the busy shard's frame must be pipelined", st.FramesOut, st.FramesInline)
	}
}

// TestLaneMultiWorkerOverlap pins why a multi-worker pool keeps plain
// frames off the inline lane. Two callers share one multiplexed connection to a
// 2-worker pool, keyed to different shards, each send held by a stall.
// The second frame goes out only once the first is executing, and must
// reach its own shard while the first still runs: had the reader been
// executing the first send, it would have read the second only after.
func TestLaneMultiWorkerOverlap(t *testing.T) {
	s, pool := startServer(t, serve.Config{Workers: 2, Timeout: 30 * time.Second,
		Faults: &serve.Faults{StallEvery: 1, Stall: 500 * time.Millisecond}}, Options{})
	m, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	send := func(recv int32, key uint64) error {
		resp, err := m.Do(serve.Request{Receiver: word.FromInt(recv), Selector: "answer", Key: key})
		if err == nil && (!resp.OK() || resp.Value.Int() != recv+1) {
			err = fmt.Errorf("send %d: status %d value %v (%s)", recv, resp.Status, resp.Value, resp.Err)
		}
		return err
	}
	errs := make(chan error, 2)
	go func() { errs <- send(1, 1) }() // key 1: shard 1
	waitFor(t, "the first send to execute", func() bool { return pool.QueueDepths()[1] == 1 })
	go func() { errs <- send(2, 2) }() // key 2: shard 0
	overlapped := false
	waitFor(t, "the second send to execute", func() bool {
		d := pool.QueueDepths()
		overlapped = d[1] == 1
		return d[0] == 1
	})
	if !overlapped {
		t.Fatal("the second frame reached its shard only after the first send ended")
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.FramesIn != 2 || st.FramesOut != 2 || st.FramesInline != 0 {
		t.Fatalf("frames in/out/inline = %d/%d/%d, want 2/2/0", st.FramesIn, st.FramesOut, st.FramesInline)
	}
}

// TestInlineShutdownAnswersInFlight pins the drain contract across the
// inline lane: Shutdown lands while the reader is itself executing a
// send that outlasts DrainGrace, with a second frame already on the wire
// behind it. The inline answer is written, the reader still gets its
// grace to take the second frame, and both answers arrive in order.
func TestInlineShutdownAnswersInFlight(t *testing.T) {
	pool := serve.NewPool(answerSnapshot(t, 1), serve.Config{Workers: 1, Timeout: 30 * time.Second,
		Faults: &serve.Faults{StallEvery: 1, Stall: 300 * time.Millisecond}})
	defer pool.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(l, pool, Options{DrainGrace: 50 * time.Millisecond})

	r := dialRaw(t, s.Addr().String())
	r.send(1)
	r.flush()
	waitFor(t, "the inline execution", func() bool { return pool.QueueDepths()[0] == 1 })
	r.send(2)
	r.flush()

	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	r.expect()
	<-done
	if st := s.Stats(); st.FramesIn != 2 || st.FramesOut != 2 || st.FramesInline != 1 {
		t.Fatalf("frames in/out/inline = %d/%d/%d, want 2/2/1", st.FramesIn, st.FramesOut, st.FramesInline)
	}
}

// TestLaneLoneMultiWorker pins which frames take the inline lane on a
// 2-worker pool: the lone ones. Client.Do marks its frame lone, so its
// depth-1 sends are all answered by the reader; the same depth-1
// traffic sent as plain frames, by Client.Send and by a raw connection,
// stays pipelined.
func TestLaneLoneMultiWorker(t *testing.T) {
	const n = 100
	cfg := serve.Config{Workers: 2, GCEvery: -1, Timeout: 30 * time.Second}
	t.Run("Do", func(t *testing.T) {
		s, _ := startServer(t, cfg, Options{})
		c, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := int32(0); i < n; i++ {
			resp, err := c.Do(serve.Request{Receiver: word.FromInt(i), Selector: "answer"})
			if err != nil || !resp.OK() || resp.Value.Int() != i+1 {
				t.Fatalf("send %d: %v %+v", i, err, resp)
			}
		}
		if st := s.Stats(); st.FramesIn != n || st.FramesLone != n || st.FramesOut != n || st.FramesInline != n {
			t.Fatalf("frames in/lone/out/inline = %d/%d/%d/%d, want %d each", st.FramesIn, st.FramesLone, st.FramesOut, st.FramesInline, n)
		}
	})
	t.Run("Send", func(t *testing.T) {
		s, _ := startServer(t, cfg, Options{})
		c, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := int32(0); i < n; i++ {
			if _, err := c.Send(serve.Request{Receiver: word.FromInt(i), Selector: "answer"}); err != nil {
				t.Fatal(err)
			}
			resp, err := c.Recv()
			if err != nil || !resp.OK() || resp.Value.Int() != i+1 {
				t.Fatalf("send %d: %v %+v", i, err, resp)
			}
		}
		if st := s.Stats(); st.FramesIn != n || st.FramesLone != 0 || st.FramesOut != n || st.FramesInline != 0 {
			t.Fatalf("frames in/lone/out/inline = %d/%d/%d/%d, want %d/0/%d/0", st.FramesIn, st.FramesLone, st.FramesOut, st.FramesInline, n, n)
		}
	})
	t.Run("raw", func(t *testing.T) {
		s, _ := startServer(t, cfg, Options{})
		r := dialRaw(t, s.Addr().String())
		for i := int32(0); i < n; i++ {
			r.send(i)
			r.flush()
			r.expect()
		}
		if st := s.Stats(); st.FramesIn != n || st.FramesLone != 0 || st.FramesOut != n || st.FramesInline != 0 {
			t.Fatalf("frames in/lone/out/inline = %d/%d/%d/%d, want %d/0/%d/0", st.FramesIn, st.FramesLone, st.FramesOut, st.FramesInline, n, n)
		}
	})
}

// TestLaneWindowOverlapMultiWorker pins that a pipelining Client keeps
// its parallelism on a 2-worker pool. It keeps a window of two
// stall-held sends, keyed to alternate shards, refilled one frame per
// Recv, so each new frame lands while the one before it still runs. Had
// the reader run such a frame itself once the frame before it was
// answered, the next would have waited it out, and so on: the whole
// connection would have gone serial, taking at least n stalls. Every
// frame must stay pipelined, the first two must run at once, and the
// n sends must take less than n stalls.
func TestLaneWindowOverlapMultiWorker(t *testing.T) {
	const stall = 100 * time.Millisecond
	s, pool := startServer(t, serve.Config{Workers: 2, Timeout: 30 * time.Second,
		Faults: &serve.Faults{StallEvery: 1, Stall: stall}}, Options{})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 8
	send := func(i int32) {
		t.Helper()
		// Even sends take key 1 (shard 1), odd ones key 2 (shard 0).
		if _, err := c.Send(serve.Request{Receiver: word.FromInt(i), Selector: "answer", Key: uint64(1 + i%2)}); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(i int32) {
		t.Helper()
		if resp, err := c.Recv(); err != nil || !resp.OK() || resp.Value.Int() != i+1 {
			t.Fatalf("answer %d: %v %+v", i, err, resp)
		}
	}
	start := time.Now()
	send(0)
	waitFor(t, "send 0 to execute", func() bool { return pool.QueueDepths()[1] == 1 })
	send(1)
	overlapped := false
	waitFor(t, "send 1 to execute", func() bool {
		d := pool.QueueDepths()
		overlapped = d[1] == 1
		return d[0] == 1
	})
	if !overlapped {
		t.Fatal("send 1 reached its shard only after send 0 ended")
	}
	for i := int32(2); i < n; i++ {
		recv(i - 2)
		send(i)
	}
	recv(n - 2)
	recv(n - 1)
	if took := time.Since(start); took >= n*stall {
		t.Fatalf("%d sends took %v, at least %d stalls of %v: the window ran one send at a time", n, took, n, stall)
	}
	if st := s.Stats(); st.FramesIn != n || st.FramesOut != n || st.FramesLone != 0 || st.FramesInline != 0 {
		t.Fatalf("frames in/out/lone/inline = %d/%d/%d/%d, want %d/%d/0/0", st.FramesIn, st.FramesOut, st.FramesLone, st.FramesInline, n, n)
	}
}

// TestLaneClientWindowMultiWorker runs a pipelining Client against a
// 2-worker pool, where its frames land on both shards: 64-deep windows
// kept full, each followed by depth-1 Do round trips. Recv checks every
// answer's frame id against send order, so an inline answer overtaking
// a pipelined one fails here. Only the Do frames are lone, and only
// they may have run inline.
func TestLaneClientWindowMultiWorker(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 2, GCEvery: -1, Timeout: 30 * time.Second}, Options{})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const depth = 64
	var sent, answered, dos int32
	recv := func() {
		t.Helper()
		resp, err := c.Recv()
		if err != nil || !resp.OK() || resp.Value.Int() != answered+1 {
			t.Fatalf("answer %d: %v %+v", answered, err, resp)
		}
		answered++
	}
	for round := 0; round < 10; round++ {
		for i := 0; i < 4*depth; i++ {
			if _, err := c.Send(serve.Request{Receiver: word.FromInt(sent), Selector: "answer"}); err != nil {
				t.Fatal(err)
			}
			sent++
			for c.InFlight() >= depth {
				recv()
			}
		}
		for c.InFlight() > 0 {
			recv()
		}
		for i := 0; i < 8; i++ {
			resp, err := c.Do(serve.Request{Receiver: word.FromInt(sent), Selector: "answer"})
			if err != nil || !resp.OK() || resp.Value.Int() != sent+1 {
				t.Fatalf("Do %d: %v %+v", sent, err, resp)
			}
			sent++
			answered++
			dos++
		}
	}
	st := s.Stats()
	if st.FramesIn != uint64(sent) || st.FramesOut != uint64(sent) || st.FramesLone != uint64(dos) {
		t.Fatalf("frames in/out/lone = %d/%d/%d, want %d/%d/%d", st.FramesIn, st.FramesOut, st.FramesLone, sent, sent, dos)
	}
	if st.FramesInline == 0 || st.FramesInline > st.FramesLone {
		t.Fatalf("frames_inline = %d of %d lone frames: Do must have run inline, and nothing else", st.FramesInline, st.FramesLone)
	}
}

// TestLaneUnknownOpening proves a bad opening, or a frame of unknown
// type behind a good one, poisons only its own connection. A Client and
// a MuxClient stay open on a 2-worker pool across every bad input — the
// near misses of the magic and the frame types among them — and keep
// being answered, as does a fresh raw connection.
func TestLaneUnknownOpening(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 2, GCEvery: -1, Timeout: 30 * time.Second}, Options{})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	check := func(when string) {
		t.Helper()
		req := serve.Request{Receiver: word.FromInt(7), Selector: "answer"}
		if resp, err := c.Do(req); err != nil || resp.Value.Int() != 8 {
			t.Fatalf("%s: client: %v %+v", when, err, resp)
		}
		if resp, err := m.Do(req); err != nil || resp.Value.Int() != 8 {
			t.Fatalf("%s: mux client: %v %+v", when, err, resp)
		}
		r := dialRaw(t, s.Addr().String())
		r.send(9)
		r.flush()
		r.expect()
	}
	check("before")
	send := func(opening string, typ byte) []byte {
		return appendRequest([]byte(opening), typ, 0, serve.Request{Receiver: word.FromInt(1), Selector: "answer"})
	}
	bad := [][]byte{
		send("OBW0", frameSend), send("OBW2", frameSendLone), send("OBS1", frameSendLone), send("obw1", frameSend),
		send("OBW\x00", frameSend), send("GET ", frameSend),
		send(Magic, 0x00), send(Magic, frameResult), send(Magic, 0x06), send(Magic, frameSendLone|0x80),
	}
	for i, input := range bad {
		raw, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(input); err != nil {
			t.Fatal(err)
		}
		// The server must hang up without answering the frame.
		raw.SetReadDeadline(time.Now().Add(10 * time.Second))
		n, err := io.Copy(io.Discard, raw)
		if ne, ok := err.(net.Error); n != 0 || ok && ne.Timeout() {
			t.Fatalf("input %q: read %d bytes, %v; want a hang-up with no answer", input[:9], n, err)
		}
		raw.Close()
		waitFor(t, fmt.Sprintf("input %q to count", input[:9]), func() bool { return s.Stats().ProtoErrors == uint64(i+1) })
		check(fmt.Sprintf("after input %q", input[:9]))
	}
	// Each check sends one lone frame over the Client, and one plain
	// frame each over the MuxClient and a fresh raw connection.
	st := s.Stats()
	checks := uint64(1 + len(bad))
	if st.FramesIn != 3*checks || st.FramesLone != checks || st.ProtoErrors != uint64(len(bad)) {
		t.Fatalf("frames_in %d, frames_lone %d, proto_errors %d; want %d, %d, %d",
			st.FramesIn, st.FramesLone, st.ProtoErrors, 3*checks, checks, len(bad))
	}
}
