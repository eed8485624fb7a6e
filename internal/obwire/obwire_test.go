package obwire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/smalltalk"
	"repro/internal/word"
)

// answerSnapshot compiles an image whose answer method adds val — the
// same fixture the serve tests use.
func answerSnapshot(t testing.TB, val int) *core.Snapshot {
	t.Helper()
	m := core.New(core.Config{})
	c, err := smalltalk.Compile(fmt.Sprintf(`
extend SmallInt [
	method answer [ ^self + %d ]
]`, val))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := smalltalk.LoadCOM(m, c); err != nil {
		t.Fatalf("load: %v", err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap
}

// startServer boots a pool on the answer image and serves it over
// obwire on a loopback listener.
func startServer(t *testing.T, cfg serve.Config, opts Options) (*Server, *serve.Pool) {
	t.Helper()
	pool := serve.NewPool(answerSnapshot(t, 1), cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(l, pool, opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		pool.Close()
	})
	return s, pool
}

// TestRequestFrameRoundTrip pins the request codec: every field —
// receiver, selector, args, key, step budget, timeout — survives
// encode/decode, and the id comes back.
func TestRequestFrameRoundTrip(t *testing.T) {
	in := serve.Request{
		Receiver: word.FromInt(-7),
		Selector: "with:args:",
		Args:     []word.Word{word.FromInt(3), word.FromFloat(2.5), word.FromAtom(9)},
		Key:      42,
		MaxSteps: 1 << 20,
		Timeout:  1500 * time.Millisecond,
	}
	b := appendRequest(nil, frameSend, 99, in)
	s := &Server{}
	sels := map[string]string{}
	id, out, lone, err := s.decodeRequest(b[4:], sels) // past the length prefix
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if id != 99 || lone {
		t.Fatalf("id = %d, lone %v; want 99, plain", id, lone)
	}
	if _, _, lone, err := s.decodeRequest(appendRequest(nil, frameSendLone, 99, in)[4:], sels); err != nil || !lone {
		t.Fatalf("lone frame: lone %v, %v", lone, err)
	}
	if out.Receiver != in.Receiver || out.Selector != in.Selector || out.Key != in.Key ||
		out.MaxSteps != in.MaxSteps || out.Timeout != in.Timeout || len(out.Args) != len(in.Args) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	for i := range in.Args {
		if out.Args[i] != in.Args[i] {
			t.Fatalf("arg %d: got %v, want %v", i, out.Args[i], in.Args[i])
		}
	}
	// The selector was interned: decoding again reuses the map entry.
	_, out2, _, err := s.decodeRequest(b[4:], sels)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Selector != out.Selector || len(sels) != 1 {
		t.Fatalf("selector not interned (map holds %d entries)", len(sels))
	}
}

// TestResponseFrameRoundTrip pins the response codec for both the OK
// and the error shape, including the status mapping.
func TestResponseFrameRoundTrip(t *testing.T) {
	ok := serve.Result{Value: word.FromInt(8), Worker: 3, Steps: 11, Cycles: 29, Latency: 1200}
	b := appendResponse(nil, 7, ok)
	r, err := decodeResponse(b[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() || r.ID != 7 || r.Value != ok.Value || r.Worker != 3 || r.Steps != 11 || r.Cycles != 29 || r.Latency != 1200 || r.Err != "" {
		t.Fatalf("ok round trip: %+v", r)
	}

	for _, tc := range []struct {
		err    error
		status uint8
		retry  bool
	}{
		{serve.ErrOverloaded, StatusOverloaded, true},
		{serve.ErrExpired, StatusShed, true},
		{errors.New("doesNotUnderstand: answer"), StatusMachineError, false},
		{serve.ErrClosed, StatusMachineError, false},
	} {
		b = appendResponse(b[:0], 1, serve.Result{Err: tc.err})
		r, err := decodeResponse(b[4:])
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != tc.status || r.Err != tc.err.Error() {
			t.Fatalf("%v: status %d err %q, want %d %q", tc.err, r.Status, r.Err, tc.status, tc.err.Error())
		}
		if Retryable(r.Status) != tc.retry {
			t.Fatalf("%v: Retryable = %v, want %v", tc.err, Retryable(r.Status), tc.retry)
		}
	}
}

// TestDoRoundTrip is the end-to-end smoke: a real pool behind a real
// listener answers a send, with the pool's accounting attached.
func TestDoRoundTrip(t *testing.T) {
	s, pool := startServer(t, serve.Config{Workers: 2}, Options{})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := c.Do(serve.Request{Receiver: word.FromInt(4), Selector: "answer"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() || r.Value.Int() != 5 {
		t.Fatalf("answer: %+v, want 5", r)
	}
	if r.Steps == 0 || r.Latency <= 0 {
		t.Fatalf("accounting missing from response: %+v", r)
	}
	if met := pool.Metrics(); met.Requests != 1 {
		t.Fatalf("pool served %d requests, want 1", met.Requests)
	}
	st := s.Stats()
	if st.FramesIn != 1 || st.FramesOut != 1 || st.ConnsAccepted != 1 || st.ProtoErrors != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestPipelinedOrdering drives a deep pipeline through one connection:
// every response arrives in send order with the right answer.
func TestPipelinedOrdering(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 4}, Options{})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const depth, total = 32, 512
	recv := 0
	for i := 0; recv < total; {
		for ; i < total && c.InFlight() < depth; i++ {
			if _, err := c.Send(serve.Request{Receiver: word.FromInt(int32(i)), Selector: "answer"}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		r, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", recv, err)
		}
		if !r.OK() || r.Value.Int() != int32(recv)+1 {
			t.Fatalf("response %d: %+v, want %d", recv, r, recv+1)
		}
		recv++
	}
	if c.InFlight() != 0 {
		t.Fatalf("%d frames still in flight", c.InFlight())
	}
}

// TestRefusalStatus pins the in-band refusal path: a pool that admits
// nothing answers StatusOverloaded frames — retryable, message carried —
// and the connection stays healthy for when capacity returns.
func TestRefusalStatus(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 1, MaxInFlight: -1}, Options{})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		r, err := c.Do(serve.Request{Receiver: word.FromInt(1), Selector: "answer"})
		if err != nil {
			t.Fatalf("refusal %d should be in-band, not a transport error: %v", i, err)
		}
		if r.Status != StatusOverloaded || !Retryable(r.Status) || r.Err == "" {
			t.Fatalf("refusal %d: %+v, want retryable StatusOverloaded with message", i, r)
		}
	}
}

// TestMachineErrorStatus: a send the image does not understand is a
// non-retryable machine error with the diagnostic attached, and the
// connection survives it.
func TestMachineErrorStatus(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 1}, Options{})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := c.Do(serve.Request{Receiver: word.FromInt(1), Selector: "nonesuch"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusMachineError || Retryable(r.Status) || r.Err == "" {
		t.Fatalf("unknown selector: %+v, want non-retryable StatusMachineError", r)
	}
	if r, err = c.Do(serve.Request{Receiver: word.FromInt(1), Selector: "answer"}); err != nil || !r.OK() {
		t.Fatalf("connection did not survive a machine error: %+v, %v", r, err)
	}
}

// TestPoisonedConnections is the hostile-input matrix: a bad magic, an
// oversized length prefix, a truncated frame, and a garbage payload each
// kill exactly their own connection — counted as protocol errors — while
// the daemon keeps serving new connections.
func TestPoisonedConnections(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 1}, Options{MaxFrame: 1 << 12})

	probe := func(when string) {
		t.Helper()
		c, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatalf("%s: dial: %v", when, err)
		}
		defer c.Close()
		if r, err := c.Do(serve.Request{Receiver: word.FromInt(1), Selector: "answer"}); err != nil || !r.OK() {
			t.Fatalf("%s: daemon no longer serves: %+v, %v", when, r, err)
		}
	}

	hostile := []struct {
		name  string
		bytes []byte
	}{
		{"bad magic", []byte("GET / HTTP/1.1\r\n\r\n")},
		{"oversized frame", append([]byte(Magic), 0xff, 0xff, 0xff, 0x7f)},
		{"zero-length frame", append([]byte(Magic), 0, 0, 0, 0)},
		{"garbage payload", append([]byte(Magic), 5, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0x99)},
		{"truncated frame", append([]byte(Magic), 100, 0, 0, 0, 1, 2, 3)},
	}
	for _, h := range hostile {
		t.Run(h.name, func(t *testing.T) {
			before := s.Stats().ProtoErrors
			raw, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Write(h.bytes); err != nil {
				t.Fatal(err)
			}
			if h.name == "truncated frame" {
				// Half a frame then hangup: the server must treat the
				// unexpected EOF as this connection's problem only.
				raw.(*net.TCPConn).CloseWrite()
			}
			// The server must hang up on us.
			raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 64)
			for {
				if _, err := raw.Read(buf); err != nil {
					break
				}
			}
			raw.Close()
			deadline := time.Now().Add(5 * time.Second)
			for s.Stats().ProtoErrors == before {
				if time.Now().After(deadline) {
					t.Fatalf("protocol error never counted (stats %+v)", s.Stats())
				}
				time.Sleep(time.Millisecond)
			}
			probe("after " + h.name)
		})
	}
	if st := s.Stats(); st.ProtoErrors != uint64(len(hostile)) {
		t.Fatalf("proto_errors = %d, want %d", st.ProtoErrors, len(hostile))
	}
}

// TestShutdownAnswersInFlight pins the drain contract: frames dispatched
// before Shutdown are answered and flushed, the listener refuses new
// connections, and Shutdown returns.
func TestShutdownAnswersInFlight(t *testing.T) {
	pool := serve.NewPool(answerSnapshot(t, 1), serve.Config{Workers: 1})
	defer pool.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(l, pool, Options{})
	addr := s.Addr().String()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := c.Send(serve.Request{Receiver: word.FromInt(int32(i)), Selector: "answer"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Give the reader a moment to dispatch, then drain.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)

	got := 0
	for i := 0; i < n; i++ {
		r, err := c.Recv()
		if err != nil {
			break // frames past the drain cut are allowed to be lost
		}
		if !r.OK() || r.Value.Int() != int32(i)+1 {
			t.Fatalf("drained response %d: %+v", i, r)
		}
		got++
	}
	if got == 0 {
		t.Fatal("no dispatched frame was answered across the drain")
	}
	if _, err := Dial(addr); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}
