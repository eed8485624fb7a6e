package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/image"
	"repro/internal/serve"
	"repro/internal/stats"
)

// run performs one benchmark run: a cold boot, a warm-up, and a measured
// closed-loop send phase cut into segments. After each segment a side
// block repeats cold boots (setup_s), checkpoints and restores, so those
// medians sample the same stretch of host time as the sends do. The
// traced ladder pass follows when asked, and a teardown checks every
// pool's and listener's accounting.
func run(o options) (*report, error) {
	w := o.w
	r := &report{Workload: w.name, Seed: o.seed, Trace: o.trace, Host: fingerprint(),
		Samples: map[string]int{}, Metrics: map[string]float64{}}
	var t tally
	cpu0 := readCPUTimes()

	var sd sides
	runtime.GC()
	t0 := time.Now()
	st, err := boot(w, &t)
	if err != nil {
		return nil, err
	}
	sd.setup = append(sd.setup, time.Since(t0).Seconds())
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	if w.routed {
		if err := st.calibrate(o.seed, &t); err != nil {
			return nil, err
		}
	}

	gens := make([]func() send, clients)
	for c := range gens {
		gens[c] = w.gen(o.seed, c, st)
	}
	runtime.GC()
	load(st, gens, o.warm, nil, &t)

	// Latency quantiles pool every send of the phase; throughput is all
	// sends over the summed segment wall time. Process counters add up
	// over the segments only, leaving the side blocks out.
	per := max(o.sends/segments, 1)
	all := make([]time.Duration, per*clients*segments)
	lat := make([][]time.Duration, clients)
	var wall, cpu time.Duration
	var alloc, gcs uint64
	pool0 := poolTotals(st)
	for i := range segments {
		for c := range lat {
			k := (i*clients + c) * per
			lat[c] = all[k : k+per]
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpuT0, host0 := cpuTime(), readCPUTimes()
		w := load(st, gens, per, lat, &t)
		cpu += cpuTime() - cpuT0
		steal := stealShare(host0, readCPUTimes())
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		wall += w
		seg := slices.Clone(all[i*clients*per : (i+1)*clients*per])
		r.Segments = append(r.Segments, segment{P50: quantile(seg, 0.50) / 1e3, Throughput: float64(len(seg)) / w.Seconds(), Steal: steal})

		if i == segments-1 {
			loadLayerMetrics(r, pool0, poolTotals(st))
			runtime.GC()
			var live runtime.MemStats
			runtime.ReadMemStats(&live)
			// Less the benchmark's own latency buffer.
			r.Metrics["live_heap_mb"] = float64(live.HeapAlloc-uint64(8*cap(all))) / 1e6
		}
		if err := sd.block(o, r, st, &t); err != nil {
			return nil, err
		}
	}
	n := len(all)
	r.Samples["latency"] = n
	r.Samples["segments"] = segments
	r.Metrics["p50_us"] = quantile(all, 0.50) / 1e3
	r.Metrics["p90_us"] = quantile(all, 0.90) / 1e3
	r.Metrics["client.p99_us"] = quantile(all, 0.99) / 1e3
	r.Metrics["throughput_sps"] = float64(n) / wall.Seconds()
	r.Metrics["go.alloc_bytes_per_send"] = float64(alloc) / float64(n)
	r.Metrics["go.gc_cycles"] = float64(gcs)
	r.Metrics["proc.cpu_us_per_send"] = float64(cpu) / 1e3 / float64(n)
	sd.report(r)

	if o.trace {
		if err := ladder(o, r, st, &t); err != nil {
			return nil, err
		}
	}

	if st.router != nil {
		clusterMetrics(r, st)
	}
	routers := routerForwards(st)
	st.close()
	conservation(r, st, routers)
	st = nil

	r.Metrics["host.steal_share"] = stealShare(cpu0, readCPUTimes())
	r.Host.StealShare = r.Metrics["host.steal_share"]
	r.Attempted, r.Failed = t.attempted.Load(), t.failed.Load()
	if r.Failed > 0 {
		r.problem("%d of %d sends failed; first: %v", r.Failed, r.Attempted, *t.firstErr.Load())
	}
	r.Correct = len(r.Problems) == 0
	return r, nil
}

// segments is how many parts the measured phase is split into.
const segments = 10

// load runs the closed loop: each client sends per requests, each after
// the previous reply, and records latencies into lat when non-nil. It
// answers the wall time from the common start to the last reply.
func load(st *stack, gens []func() send, per int, lat [][]time.Duration, t *tally) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do, gen := st.clients[c], gens[c]
			<-start
			for i := 0; i < per; i++ {
				s := gen()
				t0 := time.Now()
				resp, err := do(s.req)
				if lat != nil {
					lat[c][i] = time.Since(t0)
				}
				t.check(s.verify(resp, err))
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// poolStats is the counters of every pool in a stack, merged.
type poolStats struct {
	m         serve.Metrics
	queueWait stats.Histogram
	service   stats.Histogram
}

func poolTotals(st *stack) poolStats {
	var p poolStats
	for _, n := range st.nodes {
		m := n.pool.Metrics()
		p.m.Requests += m.Requests
		p.m.Errors += m.Errors
		p.m.Rejected += m.Rejected
		p.m.SheddedExpired += m.SheddedExpired
		p.m.Instructions += m.Instructions
		p.m.GCs += m.GCs
		p.m.GCPause += m.GCPause
		p.m.TotalLatency += m.TotalLatency
		p.m.ITLB.Hits += m.ITLB.Hits
		p.m.ITLB.Total += m.ITLB.Total
		qw, sv := n.pool.QueueWaitHistogram(), n.pool.LatencyHistogram()
		p.queueWait.Merge(&qw)
		p.service.Merge(&sv)
	}
	return p
}

// loadLayerMetrics derives the per-layer counters of the measured phase
// from the pools' and router's public stats.
func loadLayerMetrics(r *report, a, b poolStats) {
	reqs := float64(b.m.Requests - a.m.Requests)
	cycles := b.m.GCs - a.m.GCs
	r.Metrics["core.instr_per_send"] = float64(b.m.Instructions-a.m.Instructions) / reqs
	r.Metrics["core.itlb_hit_ratio"] = float64(b.m.ITLB.Hits-a.m.ITLB.Hits) / float64(b.m.ITLB.Total-a.m.ITLB.Total)
	r.Metrics["gc.cycles"] = float64(cycles)
	r.Metrics["gc.sends_per_cycle"] = reqs / float64(max(cycles, 1))
	r.Metrics["gc.pause_ms"] = float64(b.m.GCPause-a.m.GCPause) / 1e6
	r.Metrics["gc.pause_share"] = float64(b.m.GCPause-a.m.GCPause) / float64(b.m.TotalLatency-a.m.TotalLatency)
	r.Metrics["serve.rejected"] = float64(b.m.Rejected - a.m.Rejected)
	r.Metrics["serve.shed"] = float64(b.m.SheddedExpired - a.m.SheddedExpired)
	r.Metrics["serve.errors"] = float64(b.m.Errors - a.m.Errors)
	qw, sv := histDelta(b.queueWait, a.queueWait), histDelta(b.service, a.service)
	r.Metrics["serve.queue_wait_p50_us"] = histQuantile(&qw, 0.50) / 1e3
	r.Metrics["serve.queue_wait_p90_us"] = histQuantile(&qw, 0.90) / 1e3
	r.Metrics["serve.service_p50_us"] = histQuantile(&sv, 0.50) / 1e3
	r.Samples["queue_wait"] = int(qw.Count())
}

// clusterMetrics derives the router's useful-work ratios from every send
// it carried (routed: calibration, load and ladder; echo and suite: the
// ladder's one-node router).
func clusterMetrics(r *report, st *stack) {
	rs := st.router.Stats()
	useful := rs.Sends - rs.Exhausted - rs.NoBackend
	attempts := rs.Sends + rs.FailoversRefusal + rs.FailoversTransport
	r.Metrics["cluster.attempts_per_send"] = float64(attempts) / float64(max(useful, 1))
	var total, most uint64
	for _, ns := range rs.Nodes {
		total += ns.Completed
		most = max(most, ns.Completed)
	}
	r.Metrics["cluster.node_share_max"] = float64(most) / float64(max(total, 1))
}

// sides collects the side blocks' samples, in milliseconds except setup.
type sides struct {
	setup                   []float64
	snap, write, checkpoint []float64
	read, restore           []float64
	img                     []byte
}

// block runs one side block between segments: cold boots, then
// checkpoints of the first pool (SnapshotLive + image.Write), then
// restores from the newest checkpoint (image.Read → NewPool → first
// verified send). A GC before each repetition starts it on a clean heap.
// The block after the last segment leaves the image whose size is
// image_bytes.
func (sd *sides) block(o options, r *report, st *stack, t *tally) error {
	start := time.Now()
	for k := 0; o.boots.more(k, start); k++ {
		runtime.GC()
		t0 := time.Now()
		s, err := boot(o.w, t)
		if err != nil {
			return err
		}
		sd.setup = append(sd.setup, time.Since(t0).Seconds())
		s.close()
	}

	n := st.nodes[0]
	var buf bytes.Buffer
	var img []byte
	start = time.Now()
	for k := 0; o.images.more(k, start); k++ {
		runtime.GC()
		t0 := time.Now()
		snap, err := n.pool.SnapshotLive()
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		t1 := time.Now()
		buf.Reset()
		if err := image.Write(&buf, snap); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		t2 := time.Now()
		sd.snap = append(sd.snap, ms(t1.Sub(t0)))
		sd.write = append(sd.write, ms(t2.Sub(t1)))
		sd.checkpoint = append(sd.checkpoint, ms(t2.Sub(t0)))
		if img == nil {
			img = bytes.Clone(buf.Bytes())
		} else if !bytes.Equal(img, buf.Bytes()) {
			r.problem("two checkpoints of an idle pool differ")
		}
	}
	sd.img = img

	start = time.Now()
	for k := 0; o.images.more(k, start); k++ {
		runtime.GC()
		t0 := time.Now()
		snap, err := image.Read(bytes.NewReader(img))
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		t1 := time.Now()
		p := serve.NewPool(snap, n.cfg)
		res := p.Do(o.w.probe.req)
		t2 := time.Now()
		p.Close()
		if err := t.check(o.w.probe.verifyWord(res.Value, res.Err)); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		if m := p.Metrics(); m.Requests != 1 || m.Rejected != 0 || m.SheddedExpired != 0 {
			r.problem("restored pool accounted %+v for one send", m)
		}
		sd.read = append(sd.read, ms(t1.Sub(t0)))
		sd.restore = append(sd.restore, ms(t2.Sub(t0)))
	}
	return nil
}

// report turns the side samples into metrics.
func (sd *sides) report(r *report) {
	r.Metrics["setup_s"] = median(sd.setup)
	r.Metrics["image_bytes"] = float64(len(sd.img))
	r.Metrics["checkpoint_ms"] = median(sd.checkpoint)
	r.Metrics["image.snapshot_ms"] = median(sd.snap)
	r.Metrics["image.write_ms"] = median(sd.write)
	r.Metrics["restore_ms"] = median(sd.restore)
	r.Metrics["image.read_ms"] = median(sd.read)
	r.Samples["setup_s"] = len(sd.setup)
	r.Samples["checkpoint"] = len(sd.checkpoint)
	r.Samples["restore"] = len(sd.restore)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// routerForwards reads, before the routers close, how many sends each
// router forwarded to each node, keyed by obwire address.
func routerForwards(st *stack) map[string]uint64 {
	out := map[string]uint64{}
	if st.router != nil {
		for _, ns := range st.router.Stats().Nodes {
			out[ns.BinAddr] += ns.Forwards
		}
	}
	return out
}

// conservation checks, on a stopped stack, that every send reached exactly
// one outcome: each pool accounts Requests+Rejected+SheddedExpired for
// exactly the sends submitted to it, each listener answered every frame it
// read, and read exactly the frames the benchmark and routers wrote.
func conservation(r *report, st *stack, forwards map[string]uint64) {
	var in, out, proto uint64
	for i, n := range st.nodes {
		m := n.pool.Metrics()
		ws := n.srv.Stats()
		in += ws.FramesIn
		out += ws.FramesOut
		proto += ws.ProtoErrors
		if got, want := m.Requests+m.Rejected+m.SheddedExpired, ws.FramesIn+n.direct.Load(); got != want {
			r.problem("node %d: pool accounted %d sends, %d were submitted", i, got, want)
		}
		if ws.FramesIn != ws.FramesOut {
			r.problem("node %d: obwire read %d frames, answered %d", i, ws.FramesIn, ws.FramesOut)
		}
		if want := n.wire.Load() + forwards[n.addr]; ws.FramesIn != want {
			r.problem("node %d: obwire read %d frames, %d were sent", i, ws.FramesIn, want)
		}
	}
	r.Metrics["obwire.frames_in"] = float64(in)
	r.Metrics["obwire.frames_out"] = float64(out)
	r.Metrics["obwire.proto_errors"] = float64(proto)
}

// histDelta is b minus a, bucket by bucket: the samples recorded between
// two snapshots of one cumulative histogram.
func histDelta(b, a stats.Histogram) stats.Histogram {
	for i := range b.Counts {
		b.Counts[i] -= a.Counts[i]
	}
	return b
}

// histEdges are the upper edges, in ns, of stats.Histogram's buckets,
// learned through its public API: a histogram holding one sample reports
// that sample's bucket edge as its maximum.
var histEdges = func() []float64 {
	edges := make([]float64, 0, stats.HistogramBuckets)
	var v time.Duration
	for len(edges) < stats.HistogramBuckets {
		var h stats.Histogram
		h.Observe(v)
		e := h.Quantile(1)
		edges = append(edges, float64(e))
		v = e + 1
	}
	return edges
}()

// histQuantile interpolates the q-quantile, in ns, linearly within its
// bucket. Histogram.Quantile answers the bucket's upper edge, which would
// quantise a wait to the same value run after run.
func histQuantile(h *stats.Histogram, q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = histEdges[i-1] + 1
			}
			return lo + (rank-cum)/float64(c)*(histEdges[i]-lo)
		}
		cum += float64(c)
	}
	return histEdges[len(histEdges)-1]
}
