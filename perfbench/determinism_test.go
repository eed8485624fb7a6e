package main

import "testing"

// TestDeterminism pins the counts a run must reproduce exactly for a
// given seed — instructions per send, GC cycles, obwire frames and the
// checkpoint's size — at a size just large enough for every suite shard
// to finish a GC cycle. A second seed must build a different heap, and
// reproduce that one exactly too.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite workload four times")
	}
	exact := []string{"core.instr_per_send", "gc.cycles", "obwire.frames_in", "image_bytes"}
	small := func(seed uint64) map[string]float64 {
		o := newOptions(specs["suite"], seed, 1, false)
		o.sends, o.warm = 1200, 10
		o.boots, o.images = reps{}, reps{min: 1, max: 1}
		r, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct {
			t.Fatalf("seed %d: %v", seed, r.Problems)
		}
		return r.Metrics
	}
	var images []float64
	for _, seed := range []uint64{1, 2} {
		a, b := small(seed), small(seed)
		for _, k := range exact {
			if a[k] != b[k] {
				t.Errorf("seed %d: %s = %v then %v", seed, k, a[k], b[k])
			}
		}
		if a["gc.cycles"] == 0 {
			t.Errorf("seed %d: no GC cycle finished; the size is too small to pin it", seed)
		}
		images = append(images, a["image_bytes"])
	}
	if images[0] == images[1] {
		t.Errorf("seeds 1 and 2 built the same %v-byte image; the seed does not reach the heap", images[0])
	}
}
