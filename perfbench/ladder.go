package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/cluster"
)

// span is one rung of one traced request: the layer it timed, when, and
// the rung that contains it on the ladder core ⊂ serve ⊂ obwire ⊂ cluster.
// Times are nanoseconds since the ladder pass began.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the outermost rung
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rung is one layer's entry point, called by a single caller.
type rung struct {
	layer string
	do    func(send) error
}

// ladder is the traced pass. A seeded sample of the workload's requests is
// sent one at a time down each rung in turn, inside out — core.Send on a
// machine stamped from the boot snapshot, Pool.Do, obwire.Client.Do, and
// Router.Send (echo and suite get a one-node router over their own
// listener for this pass) — with a span per rung. A layer's self time is
// the median, over requests, of its rung minus the rung inside it. The
// workload's own outermost hop is also timed without recording a span;
// the gap is the tracing overhead, and its distance from the loaded
// p50_us is the contention share.
func ladder(o options, r *report, st *stack, t *tally) error {
	n0 := st.nodes[0]
	m := st.snap.NewMachine()
	var instr uint64
	core := rung{"core", func(s send) error {
		i0 := m.Stats.Instructions
		v, err := m.Send(s.req.Receiver, s.req.Selector, s.req.Args...)
		instr += m.Stats.Instructions - i0
		return s.verifyWord(v, err)
	}}
	serveRung := rung{"serve", func(s send) error {
		res := n0.doDirect(s.req)
		return s.verifyWord(res.Value, res.Err)
	}}
	do, closer, err := n0.dial()
	if err != nil {
		return err
	}
	st.closers = append(st.closers, closer)
	wire := rung{"obwire", func(s send) error { return s.verify(do(s.req)) }}
	outer := wire
	if st.router == nil {
		if err := n0.startControl(); err != nil {
			return err
		}
		st.router = cluster.New(cluster.Config{Nodes: []cluster.NodeSpec{{HTTPAddr: n0.webAddr, BinAddr: n0.addr}}})
	}
	router := st.router
	clusterRung := rung{"cluster", func(s send) error { return s.verify(router.Send(s.req)) }}
	if o.w.routed {
		outer = clusterRung
	}
	rungs := []rung{core, serveRung, wire, clusterRung}

	gen := o.w.gen(o.seed^0x9e3779b97f4a7c15, 0, st)
	sample := make([]send, o.w.ladder)
	for i := range sample {
		sample[i] = gen()
	}
	// One untimed pass through every rung fills caches and connections.
	for _, s := range sample[:max(len(sample)/10, 1)] {
		for _, rg := range rungs {
			if err := t.check(rg.do(s)); err != nil {
				return fmt.Errorf("ladder %s: %w", rg.layer, err)
			}
		}
	}

	instr = 0
	durs := make([][]float64, len(rungs)) // µs, [rung][request]
	var plain, traced []float64
	r.Spans = make([]span, 0, len(sample)*(len(rungs)+1))
	epoch := time.Now()
	var coreTime time.Duration
	order := rand.New(rand.NewPCG(o.seed, 7))
	for i, s := range sample {
		for k, rg := range rungs {
			t0 := time.Now()
			err := rg.do(s)
			t1 := time.Now()
			if err := t.check(err); err != nil {
				return fmt.Errorf("ladder %s: %w", rg.layer, err)
			}
			if k == 0 {
				coreTime += t1.Sub(t0)
			}
			durs[k] = append(durs[k], float64(t1.Sub(t0))/1e3)
			r.Spans = append(r.Spans, span{Trace: i, ID: len(rungs) - k, Parent: len(rungs) - k - 1,
				Layer: rg.layer, Start: int64(t0.Sub(epoch)), End: int64(t1.Sub(epoch))})
		}
		// The outer hop once more without a span and once with one, in a
		// seeded order so neither always runs second.
		for _, withSpan := range [][2]bool{{false, true}, {true, false}}[order.IntN(2)] {
			t0 := time.Now()
			err := outer.do(s)
			t1 := time.Now()
			if err := t.check(err); err != nil {
				return fmt.Errorf("ladder %s: %w", outer.layer, err)
			}
			if withSpan {
				r.Spans = append(r.Spans, span{Trace: i, ID: len(rungs) + 1, Layer: outer.layer + ".retimed",
					Start: int64(t0.Sub(epoch)), End: int64(t1.Sub(epoch))})
				traced = append(traced, float64(t1.Sub(t0))/1e3)
			} else {
				plain = append(plain, float64(t1.Sub(t0))/1e3)
			}
		}
	}

	self := func(k int) float64 {
		d := make([]float64, len(sample))
		for i := range d {
			d[i] = durs[k][i] - durs[k-1][i]
		}
		return median(d)
	}
	r.Metrics["serve.self_us"] = self(1)
	r.Metrics["obwire.self_us"] = self(2)
	r.Metrics["cluster.self_us"] = self(3)
	r.Metrics["core.send_us"] = median(durs[0])
	r.Metrics["serve.do_us"] = median(durs[1])
	r.Metrics["obwire.rtt_us"] = median(durs[2])
	r.Metrics["cluster.send_us"] = median(durs[3])
	r.Metrics["core.ns_per_instr"] = float64(coreTime) / float64(max(instr, 1))
	untraced := median(plain)
	r.Metrics["trace.overhead_us"] = median(traced) - untraced
	r.Metrics["trace.contention_share"] = (r.Metrics["p50_us"] - untraced) / r.Metrics["p50_us"]
	r.Samples["ladder"] = len(sample)
	return nil
}
