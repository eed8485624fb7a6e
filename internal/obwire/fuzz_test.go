package obwire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/word"
)

// pipeListener is an in-memory net.Listener: every dial is one net.Pipe,
// so a fuzz input drives a real Server — accept loop, reader, writer,
// drain — without a socket.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial hands the server one end of a fresh pipe and returns the other.
func (l *pipeListener) dial() net.Conn {
	server, client := net.Pipe()
	l.conns <- server
	return client
}

// readAnswers reads the server's side of a connection until it hangs up,
// counting result frames and pongs. Every frame the server writes must
// decode; after the first that does not, the rest is drained unread so
// the server never blocks on a write.
func readAnswers(c net.Conn) (results, pongs uint64, err error) {
	br := bufio.NewReader(c)
	var hdr [4]byte
	for {
		if _, rerr := io.ReadFull(br, hdr[:]); rerr != nil {
			if rerr != io.EOF {
				err = fmt.Errorf("answer header: %w", rerr)
			}
			return
		}
		b := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
		if _, rerr := io.ReadFull(br, b); rerr != nil {
			err = fmt.Errorf("answer payload: %w", rerr)
			return
		}
		if len(b) == 9 && b[0] == framePong {
			pongs++
			continue
		}
		if _, derr := decodeResponse(b); derr != nil {
			io.Copy(io.Discard, br)
			return results, pongs, fmt.Errorf("answer %d: %w", results, derr)
		}
		results++
	}
}

// FuzzServeConn throws arbitrary bytes at a server as one connection's
// whole input — opening, frames and all — on a 1-worker and a 2-worker
// pool. chunk splits the input into writes of that many bytes (0: one
// write), which decides how much sits buffered behind each frame and so
// which lane it takes. Whatever the bytes, the server must not panic,
// must answer every frame it dispatched with a frame that decodes, must
// drain within DrainGrace once the input stops, and must keep
// FramesInline <= FramesOut <= FramesIn — and, on the 2-worker pool,
// FramesInline <= FramesLone, since only lone frames run inline there.
func FuzzServeConn(f *testing.F) {
	ping := appendPing(nil, 9)
	frames := func(fs ...[]byte) []byte {
		return bytes.Join(append([][]byte{[]byte(Magic)}, fs...), nil)
	}
	for _, typ := range []byte{frameSend, frameSendLone} {
		send := appendRequest(nil, typ, 7, serve.Request{Receiver: word.FromInt(3), Selector: "answer"})
		withArg := appendRequest(nil, typ, 8, serve.Request{Receiver: word.FromInt(3), Selector: "answer", Args: []word.Word{word.FromInt(1)}})
		f.Add(frames(send), uint8(0))
		f.Add(frames(send, ping, send, withArg), uint8(1))
		f.Add(frames(send, send, send, ping), uint8(0))
		f.Add(frames(send, ping)[:len(Magic)+len(send)+3], uint8(2)) // truncated
	}
	f.Add(frames([]byte{0xff, 0xff, 0xff, 0x7f}), uint8(0)) // oversized
	f.Add(frames([]byte{0, 0, 0, 0}), uint8(0))             // zero length
	f.Add(frames([]byte{5, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0x99}), uint8(0))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"), uint8(0))
	f.Add([]byte("OBW"), uint8(1))

	snap := answerSnapshot(f, 1)
	var pools []*serve.Pool
	for _, workers := range []int{1, 2} {
		pool := serve.NewPool(snap, serve.Config{Workers: workers, MaxSteps: 1 << 16, Timeout: time.Second})
		defer pool.Close()
		pools = append(pools, pool)
	}
	const grace = time.Millisecond

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		for _, pool := range pools {
			l := newPipeListener()
			s := Serve(l, pool, Options{MaxFrame: 1 << 12, DrainGrace: grace})
			c := l.dial()
			type answers struct {
				results, pongs uint64
				err            error
			}
			read := make(chan answers, 1)
			go func() {
				r, p, err := readAnswers(c)
				read <- answers{r, p, err}
			}()
			for rest := data; len(rest) > 0; {
				n := len(rest)
				if chunk > 0 {
					n = min(n, int(chunk))
				}
				if _, err := c.Write(rest[:n]); err != nil {
					if !errors.Is(err, io.ErrClosedPipe) {
						t.Fatalf("%d workers: write: %v", pool.Workers(), err)
					}
					break // the server hung up: the input poisoned the connection
				}
				rest = rest[n:]
			}

			// The input has stopped but the connection stays open, as a
			// stalled client's would: Shutdown must still drain it. The
			// image holds one method beside the machine's primitives, and
			// each returns at once, so no send the input makes runs long.
			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			s.Shutdown(ctx)
			cancel()
			if took := time.Since(start); took > grace+2*time.Second {
				t.Fatalf("%d workers: Shutdown took %v with a %v drain grace", pool.Workers(), took, grace)
			}
			a := <-read
			c.Close()
			if a.err != nil {
				t.Fatalf("%d workers: %v", pool.Workers(), a.err)
			}
			st := s.Stats()
			if st.FramesInline > st.FramesOut || st.FramesOut > st.FramesIn || st.FramesLone > st.FramesIn ||
				pool.Workers() > 1 && st.FramesInline > st.FramesLone {
				t.Fatalf("%d workers: frames in/lone/out/inline = %d/%d/%d/%d", pool.Workers(), st.FramesIn, st.FramesLone, st.FramesOut, st.FramesInline)
			}
			if a.results != st.FramesIn || a.pongs != st.Pings {
				t.Fatalf("%d workers: read %d results and %d pongs; server took %d frames and %d pings",
					pool.Workers(), a.results, a.pongs, st.FramesIn, st.Pings)
			}
		}
	})
}

// FuzzDecodeResponse holds the client's decoder to the same line as the
// server's: any payload decodes or errors, never panics, and one that
// decodes as a plain success re-encodes to exactly the bytes it came
// from.
func FuzzDecodeResponse(f *testing.F) {
	ok := appendResponse(nil, 1, serve.Result{Value: word.FromInt(5), Worker: 1, Steps: 3, Cycles: 9, Latency: time.Microsecond})[4:]
	refused := appendResponse(nil, 2, serve.Result{Err: serve.ErrOverloaded, Worker: 1})[4:]
	f.Add(ok)
	f.Add(refused)
	f.Add(ok[:len(ok)-1])
	f.Add(append(bytes.Clone(ok), 0))
	f.Add(appendPong(nil, 3)[4:])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeResponse(b)
		if err != nil || r.Status != StatusOK || r.Err != "" || r.Latency < 0 {
			return
		}
		again := appendResponse(nil, r.ID, serve.Result{Value: r.Value, Worker: int(r.Worker), Steps: r.Steps, Cycles: r.Cycles, Latency: r.Latency})
		if !bytes.Equal(again[4:], b) {
			t.Fatalf("decoded %+v re-encodes to %x, from %x", r, again[4:], b)
		}
	})
}
