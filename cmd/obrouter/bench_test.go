package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/word"
	"repro/internal/workload"
)

// BenchmarkRouterSend prices the front tier's routing layer: one send
// through candidate selection, the node's mux connection, and the
// backend's whole obwire loop. depth=1 is the sequential round-trip
// (routing overhead atop BinarySend/depth=1); pipelined drives the
// router from parallel callers, which is how concurrent client traffic
// naturally pipelines onto the per-node mux connections.
func BenchmarkRouterSend(b *testing.B) {
	snap := doubleSnapshot(b)
	run := func(b *testing.B, parallel bool) {
		bk := startBackend(b, snap, serve.Config{Workers: 2, GCEvery: -1, Timeout: 10 * time.Second})
		r := cluster.New(cluster.Config{
			Nodes:        []cluster.NodeSpec{bk.spec()},
			PollInterval: time.Second,
		})
		defer r.Close()
		req := serve.Request{Receiver: word.FromInt(21), Selector: "double"}
		// One warm round trip dials the mux connection and populates the
		// server-side selector cache.
		if resp, err := r.Send(req); err != nil || !resp.OK() {
			b.Fatalf("warm send: %v %v", resp, err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if !parallel {
			for i := 0; i < b.N; i++ {
				resp, err := r.Send(req)
				if err != nil || !resp.OK() {
					b.Fatalf("send: %v %v", resp, err)
				}
			}
			return
		}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := r.Send(req)
				if err != nil || !resp.OK() {
					b.Fatalf("send: %v %v", resp, err)
				}
			}
		})
	}
	b.Run("depth=1", func(b *testing.B) { run(b, false) })
	b.Run("pipelined", func(b *testing.B) { run(b, true) })
}

// BenchmarkRouterOverlap measures whether sends from several callers
// sharing a mux connection overlap on a 2-worker node. Two callers share
// each of the router's connections to the node, sending keyless work:
// work=stall is a tiny send held 2ms by a chaos stall (a fixed-length
// send that parallelises perfectly, so the figures show the transport's
// structure alone); work=suite rotates through the six suite programs at
// their measured sizes (interpreter-bound, 0.3-13ms each). ns/op is wall
// time per send, the inverse of throughput; p50_us is the callers'
// median send latency. A node that runs one connection's sends one at a
// time cannot beat 2ms/op on work=stall.
func BenchmarkRouterOverlap(b *testing.B) {
	sys := obarch.NewSystem(obarch.Options{})
	progs := workload.Suite()
	for _, p := range progs {
		if err := sys.Load(p.Src); err != nil {
			b.Fatal(err)
		}
	}
	if err := sys.Load(`extend SmallInt [ method double [ ^self + self ] ]`); err != nil {
		b.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	double := workload.Program{Name: "double", Size: 21, Entry: "double", Check: 42}
	for _, work := range []string{"stall", "suite"} {
		for _, conns := range []int{1, 2} {
			callers := 2 * conns
			b.Run(fmt.Sprintf("work=%s/callers=%d/conns=%d", work, callers, conns), func(b *testing.B) {
				cfg := serve.Config{Workers: 2, Timeout: 10 * time.Second}
				mix := progs
				if work == "stall" {
					cfg.Faults = &serve.Faults{StallEvery: 1, Stall: 2 * time.Millisecond}
					mix = []workload.Program{double}
				}
				bk := startBackend(b, snap, cfg)
				r := cluster.New(cluster.Config{
					Nodes:        []cluster.NodeSpec{bk.spec()},
					PollInterval: time.Second,
					ConnsPerNode: conns,
				})
				defer r.Close()
				lats := make([]time.Duration, b.N)
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for range callers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
							p := mix[i%int64(len(mix))]
							t0 := time.Now()
							resp, err := r.Send(serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry})
							lats[i] = time.Since(t0)
							if err != nil || !resp.OK() || resp.Value.Int() != p.Check {
								b.Errorf("%s: %v %v", p.Name, resp, err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				slices.Sort(lats)
				b.ReportMetric(float64(lats[len(lats)/2].Microseconds()), "p50_us")
			})
		}
	}
}
