package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/smalltalk"
	"repro/internal/word"
	"repro/internal/workload"
)

// answerSrc is the echo and routed image: the cheapest send that still
// crosses every layer, answering receiver+1 so each reply is checkable.
const answerSrc = `
extend SmallInt [
	method answer [ ^self + 1 ]
]`

// send is one generated request with the answer it must produce.
type send struct {
	req  serve.Request
	want int32
}

// sendFunc is one hop's round trip: obwire.Client.Do and
// cluster.Router.Send share this shape.
type sendFunc func(serve.Request) (obwire.Response, error)

// node is one in-process serving node: a pool behind an obwire listener,
// plus, when a router fronts it, an HTTP control plane answering /readyz
// and /stats the way obarchd does. Counters record every send the
// benchmark hands the node itself, for the conservation check.
type node struct {
	pool *serve.Pool
	cfg  serve.Config
	srv  *obwire.Server
	addr string

	web     *http.Server
	webAddr string
	webDone chan struct{}

	direct atomic.Uint64 // Pool.Do calls made by the benchmark
	wire   atomic.Uint64 // sends written by the benchmark's own obwire clients
}

func startNode(snap *core.Snapshot, cfg serve.Config) (*node, error) {
	n := &node{pool: serve.NewPool(snap, cfg), cfg: cfg}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.pool.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	n.srv = obwire.Serve(l, n.pool, obwire.Options{})
	n.addr = l.Addr().String()
	return n, nil
}

// startControl serves the control-plane stub a cluster.Router polls.
func (n *node) startControl() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"queue_depths":[`)
		for i, d := range n.pool.QueueDepths() {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprint(w, d)
		}
		fmt.Fprint(w, `],"in_flight":0}`)
	})
	n.web = &http.Server{Handler: mux}
	n.webAddr = l.Addr().String()
	n.webDone = make(chan struct{})
	go func() {
		defer close(n.webDone)
		_ = n.web.Serve(l) // returns http.ErrServerClosed on Close
	}()
	return nil
}

// dial opens one of the benchmark's own obwire connections to the node,
// counting every send made on it.
func (n *node) dial() (sendFunc, func(), error) {
	c, err := obwire.Dial(n.addr)
	if err != nil {
		return nil, nil, fmt.Errorf("dial %s: %w", n.addr, err)
	}
	do := func(req serve.Request) (obwire.Response, error) {
		n.wire.Add(1)
		return c.Do(req)
	}
	return do, func() { c.Close() }, nil
}

// doDirect is Pool.Do, counted.
func (n *node) doDirect(req serve.Request) serve.Result {
	n.direct.Add(1)
	return n.pool.Do(req)
}

// stop shuts the node down; every client must be closed first, so the
// obwire drain finds no reader waiting out its grace period.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	n.srv.Shutdown(ctx)
	cancel()
	n.pool.Close()
	if n.web != nil {
		n.web.Close()
		<-n.webDone
	}
}

// stack is one booted workload: its nodes, the client-side hops the load
// generator calls, and (routed only) the router in front.
type stack struct {
	w       *spec
	snap    *core.Snapshot
	nodes   []*node
	router  *cluster.Router
	clients []sendFunc
	closers []func()
	// keys holds, per node, the affinity keys the ring sends there
	// (routed only; see calibrate).
	keys [][]uint64
}

// close tears the stack down: clients, then the router, then the nodes.
func (s *stack) close() {
	for _, c := range s.closers {
		c()
	}
	s.closers = nil
	if s.router != nil {
		s.router.Close()
		s.router = nil
	}
	for _, n := range s.nodes {
		n.stop()
	}
}

// spec describes one workload.
type spec struct {
	name string
	// rate is the nominal send rate on a 2-vCPU host. It only converts
	// --seconds into the fixed send count a run makes, so the count — and
	// with it the heap a run builds — is a function of the flags alone.
	rate float64
	// src is the workload's source, compiled at every boot.
	src func(m *core.Machine) error
	// workers and nodes shape the serving side.
	workers, nodes int
	routed         bool
	// gen returns client c's request generator for the seed.
	gen func(seed uint64, c int, st *stack) func() send
	// probe is the first verified send of every boot and restore.
	probe send
	// ladder is how many sampled requests the traced pass sends down
	// each rung.
	ladder int
}

const clients = 2 // nproc on the reference host; closed loop, depth 1

var specs = map[string]*spec{
	"echo": {
		name: "echo",
		rate: 50000,
		src:  loadAnswer,
		// Keyless over a 2-worker pool, so the pool's JSQ spreads it.
		workers: 2, nodes: 1,
		gen: func(seed uint64, c int, _ *stack) func() send {
			rng := rand.New(rand.NewPCG(seed, uint64(c)))
			return func() send { return answer(rng.Int32N(1<<24), 0) }
		},
		probe:  answer(41, 0),
		ladder: 2000,
	},
	"suite": {
		name: "suite",
		rate: 400,
		src: func(m *core.Machine) error {
			_, err := workload.LoadSuite(m)
			return err
		},
		workers: 2, nodes: 1,
		gen: suiteGen,
		// Keyed to shard 0 like client 0's sends: a keyless probe would
		// land on either shard and make shard 0's heap depend on chance.
		probe:  program(workload.Arith(), 2),
		ladder: 10 * len(suiteRound),
	},
	"routed": {
		name: "routed",
		rate: 40000,
		src:  loadAnswer,
		// Two 1-worker nodes behind one router.
		workers: 1, nodes: 2, routed: true,
		gen:    routedGen,
		probe:  answer(41, 0),
		ladder: 2000,
	},
}

func loadAnswer(m *core.Machine) error {
	c, err := smalltalk.Compile(answerSrc)
	if err != nil {
		return err
	}
	return smalltalk.LoadCOM(m, c)
}

func answer(r int32, key uint64) send {
	return send{req: serve.Request{Receiver: word.FromInt(r), Selector: "answer", Key: key}, want: r + 1}
}

func program(p workload.Program, key uint64) send {
	return send{req: serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry, Key: key}, want: p.Check}
}

// suiteRound is the multiset of programs each client sends per round,
// in a seeded order. Its weights put both reported quantiles well inside
// one program's latency band rather than on the edge between two, where
// they would flip from run to run: tree is 7 of 12 sends, so p50 lies
// within tree's band, and points and recurse are one each, so p90 lies
// within points' band below the ~20 ms recurse sends.
var suiteRound = []workload.Program{
	workload.Arith(), workload.Dispatch(), workload.Sort(), workload.Points(), workload.Recurse(),
	workload.Tree(), workload.Tree(), workload.Tree(), workload.Tree(), workload.Tree(), workload.Tree(), workload.Tree(),
}

// suiteGen keys client c's sends to shard c, so each shard sees one
// client's seeded sequence and the heap it builds is a function of the
// seed alone.
func suiteGen(seed uint64, c int, st *stack) func() send {
	rng := rand.New(rand.NewPCG(seed, uint64(c)))
	key := uint64(st.w.workers + c) // key % workers == c
	order := make([]int, len(suiteRound))
	i := len(order)
	return func() send {
		if i == len(order) {
			for j := range order {
				order[j] = j
			}
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			i = 0
		}
		p := suiteRound[order[i]]
		i++
		return program(p, key)
	}
}

// routedKeys is the fixed affinity key set, half owned by each node.
const routedKeys = 16

// routedGen sends three in four requests keyed (ring routing) and the rest
// keyless (P2C). Key slot j always belongs to node j%2, so the split of
// keyed traffic between the nodes is a function of the seed even though
// the ring is built from the nodes' ephemeral ports.
func routedGen(seed uint64, c int, st *stack) func() send {
	rng := rand.New(rand.NewPCG(seed, uint64(c)))
	return func() send {
		r := rng.Int32N(1 << 24)
		if rng.IntN(4) == 0 {
			return answer(r, 0)
		}
		j := rng.IntN(routedKeys)
		return answer(r, st.keys[j%len(st.keys)][j/len(st.keys)])
	}
}

// boot is one cold start: compile the workload source, snapshot, pools,
// listeners, router, and one verified send through the client hop.
func boot(w *spec, t *tally) (*stack, error) {
	m := core.New(core.Config{})
	if err := w.src(m); err != nil {
		return nil, fmt.Errorf("compile %s: %w", w.name, err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	st := &stack{w: w, snap: snap}
	for i := 0; i < w.nodes; i++ {
		n, err := startNode(snap, serve.Config{Workers: w.workers})
		if err != nil {
			st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, n)
	}
	if w.routed {
		var cfg cluster.Config
		for _, n := range st.nodes {
			if err := n.startControl(); err != nil {
				st.close()
				return nil, err
			}
			cfg.Nodes = append(cfg.Nodes, cluster.NodeSpec{HTTPAddr: n.webAddr, BinAddr: n.addr})
		}
		st.router = cluster.New(cfg)
		for c := 0; c < clients; c++ {
			st.clients = append(st.clients, st.router.Send)
		}
	} else {
		for c := 0; c < clients; c++ {
			do, closer, err := st.nodes[0].dial()
			if err != nil {
				st.close()
				return nil, err
			}
			st.clients = append(st.clients, do)
			st.closers = append(st.closers, closer)
		}
	}
	if err := t.check(w.probe.verify(st.clients[0](w.probe.req))); err != nil {
		st.close()
		return nil, fmt.Errorf("first send: %w", err)
	}
	return st, nil
}

// calibrate finds, for the routed workload, routedKeys/2 affinity keys
// owned by each node. The ring hashes the nodes' addresses, which are
// ephemeral ports, so ownership is learned by sending each seeded
// candidate key once and seeing which node completed it.
func (s *stack) calibrate(seed uint64, t *tally) error {
	rng := rand.New(rand.NewPCG(seed, 1<<32))
	per := routedKeys / len(s.nodes)
	s.keys = make([][]uint64, len(s.nodes))
	for tries := 0; tries < 64*routedKeys; tries++ {
		key := rng.Uint64() | 1
		before := s.router.Stats().Nodes
		probe := answer(rng.Int32N(1<<24), key)
		if err := t.check(probe.verify(s.router.Send(probe.req))); err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		after := s.router.Stats().Nodes
		for i := range after {
			if after[i].Completed > before[i].Completed && len(s.keys[i]) < per {
				s.keys[i] = append(s.keys[i], key)
			}
		}
		full := true
		for _, k := range s.keys {
			full = full && len(k) == per
		}
		if full {
			return nil
		}
	}
	return fmt.Errorf("calibrate: no even key split after %d candidates", 64*routedKeys)
}

// verify checks one obwire reply against the send's expected answer.
func (s send) verify(resp obwire.Response, err error) error {
	if err != nil {
		return err
	}
	if !resp.OK() {
		return fmt.Errorf("%s: status %d: %s", s.req.Selector, resp.Status, resp.Err)
	}
	return s.verifyWord(resp.Value, nil)
}

// verifyWord checks an answer obtained below the wire.
func (s send) verifyWord(v word.Word, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", s.req.Selector, err)
	}
	if got, ok := v.IntOK(); !ok || got != s.want {
		return fmt.Errorf("%s %v answered %v, want %d", s.req.Selector, s.req.Receiver, v, s.want)
	}
	return nil
}

// tally counts every send the benchmark makes and every one that failed
// or answered wrongly. Safe for concurrent use.
type tally struct {
	attempted, failed atomic.Uint64
	firstErr          atomic.Pointer[error]
}

// check records one send's verification outcome and passes it through.
func (t *tally) check(err error) error {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
		t.firstErr.CompareAndSwap(nil, &err)
	}
	return err
}
