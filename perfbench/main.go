// Command perfbench is the repository's serving benchmark. It boots the
// serving stack in-process — core.Snapshot → serve.Pool → obwire over
// loopback → cluster.Router for the routed workload — drives it with a
// closed loop of two depth-1 clients for a fixed number of sends, checks
// every answer, and prints one JSON result line.
//
//	go build -o perfbench . && ./perfbench --workload echo --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, which add a one-caller ladder pass
// (core.Send ⊂ Pool.Do ⊂ obwire.Client.Do ⊂ Router.Send) after the load
// phase. --seconds only sizes the run: the send count is the workload's
// nominal rate times --seconds, so a run's work is fixed by its flags and
// never by how fast the host happens to be.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// metric is one reported figure's name and unit.
type metric struct{ name, unit string }

// endToEnd and perLayer list what --trace 0 and --trace 1 report, in
// BENCHMARK.json order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"throughput_sps", "1/s"},
	{"image_bytes", "B"},
	{"checkpoint_ms", "ms"},
	{"restore_ms", "ms"},
	{"live_heap_mb", "MB"},
}

var perLayer = []metric{
	{"core.send_us", "us"},
	{"core.ns_per_instr", "ns"},
	{"core.instr_per_send", "count"},
	{"core.itlb_hit_ratio", "ratio"},
	{"gc.cycles", "count"},
	{"gc.sends_per_cycle", "count"},
	{"gc.pause_ms", "ms"},
	{"gc.pause_share", "ratio"},
	{"serve.do_us", "us"},
	{"serve.self_us", "us"},
	{"serve.queue_wait_p50_us", "us"},
	{"serve.queue_wait_p90_us", "us"},
	{"serve.service_p50_us", "us"},
	{"serve.rejected", "count"},
	{"serve.shed", "count"},
	{"serve.errors", "count"},
	{"obwire.rtt_us", "us"},
	{"obwire.self_us", "us"},
	{"obwire.frames_in", "count"},
	{"obwire.frames_out", "count"},
	{"obwire.proto_errors", "count"},
	{"cluster.send_us", "us"},
	{"cluster.self_us", "us"},
	{"cluster.attempts_per_send", "ratio"},
	{"cluster.node_share_max", "ratio"},
	{"image.snapshot_ms", "ms"},
	{"image.write_ms", "ms"},
	{"image.read_ms", "ms"},
	{"go.alloc_bytes_per_send", "B"},
	{"go.gc_cycles", "count"},
	{"proc.cpu_us_per_send", "us"},
	{"client.p99_us", "us"},
	{"host.steal_share", "ratio"},
	{"trace.contention_share", "ratio"},
	{"trace.overhead_us", "us"},
}

func main() {
	name := flag.String("workload", "", "echo, suite or routed")
	seed := flag.Uint64("seed", 1, "input seed: picks receivers, keys and send order")
	seconds := flag.Float64("seconds", 10, "sizes the run: sends = nominal rate × seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced pass")
	out := flag.String("out", "", "directory for the full report and spans (optional)")
	flag.Parse()
	w, ok := specs[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload echo|suite|routed, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	rep, err := run(newOptions(w, *seed, *seconds, *trace == 1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := rep.save(*out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		os.Exit(1)
	}
}

// options fixes everything one run does.
type options struct {
	w     *spec
	seed  uint64
	trace bool
	// sends and warm are per-client closed-loop send counts.
	sends, warm int
	// boots and images size each side block: its cold boots, and its
	// checkpoints and restores.
	boots, images reps
}

// reps repeats a measurement at least min times and until budget has
// passed, at most max times.
type reps struct {
	min, max int
	budget   time.Duration
}

func (r reps) more(done int, start time.Time) bool {
	return done < r.max && (done < r.min || time.Since(start) < r.budget)
}

func newOptions(w *spec, seed uint64, seconds float64, trace bool) options {
	total := int(math.Round(w.rate * seconds))
	o := options{
		w: w, seed: seed, trace: trace,
		sends:  max(total/clients, segments),
		warm:   max(total/clients/20, 1),
		boots:  reps{min: 2, max: 10, budget: 150 * time.Millisecond},
		images: reps{min: 1, max: 20, budget: 100 * time.Millisecond},
	}
	if trace {
		// The traced pass reports no setup_s; its first boot serves it.
		o.boots = reps{}
	}
	return o
}

// report is one run's outcome. Every metric is computed on every run;
// print emits the set the trace flag selects.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Host      host               `json:"host"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Samples   map[string]int     `json:"samples"`
	Metrics   map[string]float64 `json:"metrics"`
	Segments  []segment          `json:"segments"`
	Spans     []span             `json:"spans,omitempty"`
}

// segment is one part of the measured phase, kept in the saved report to
// show how the host behaved across the run.
type segment struct {
	P50        float64 `json:"p50_us"`
	Throughput float64 `json:"throughput_sps"`
	Steal      float64 `json:"steal_share"`
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the host fingerprint and send counts, then the result line.
func (r *report) print(f *os.File) {
	enc := json.NewEncoder(f)
	_ = enc.Encode(map[string]any{"host": r.Host})
	_ = enc.Encode(map[string]any{"workload": r.Workload, "seed": r.Seed,
		"sends":   map[string]uint64{"attempted": r.Attempted, "ok": r.Attempted - r.Failed, "failed": r.Failed},
		"samples": r.Samples, "problems": r.Problems})
	set := endToEnd
	if r.Trace {
		set = perLayer
	}
	ms := make(map[string]value, len(set))
	for _, m := range set {
		ms[m.name] = value{r.Metrics[m.name], m.unit}
	}
	_ = enc.Encode(map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms})
}

// save writes the full report, spans included, as <dir>/<workload>-s<seed>-t<trace>.json.
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	t := 0
	if r.Trace {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d.json", r.Workload, r.Seed, t)), b, 0o644)
}

// median is the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics. xs is sorted
// in place.
func quantile[T ~int64 | ~float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	return float64(xs[i]) + (pos-float64(i))*float64(xs[i+1]-xs[i])
}
