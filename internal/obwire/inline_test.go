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

// send queues one send of answer to recv; the fixture image adds 1.
func (r *rawConn) send(recv int32) {
	r.out = appendRequest(r.out, r.next, serve.Request{Receiver: word.FromInt(recv), Selector: "answer"})
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

// TestLaneMultiWorkerOverlap pins why a multi-worker pool keeps the
// inline lane shut. Two callers share one multiplexed connection to a
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
