package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{50, 5}, {90, 9}, {10, 1}, {100, 10}, {1, 1}, {95, 10},
	} {
		got, n := percentile(xs, tc.p)
		if got != tc.want || n != len(xs) {
			t.Errorf("percentile(p=%v) = %v, %d; want %v, %d", tc.p, got, n, tc.want, len(xs))
		}
	}
	if xs[0] != 9 {
		t.Errorf("percentile sorted its input in place")
	}
	if v, n := percentile(nil, 50); v != 0 || n != 0 {
		t.Errorf("percentile(nil) = %v, %d; want 0, 0", v, n)
	}
	// Odd count: the middle sample.
	if got, _ := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
}

func TestBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 90, 10}, {99, 90, 9}, {250, 90, 25}, {10, 50, 5}, {0, 90, 0},
	} {
		if got := beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping counted once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped to the parent", []interval{{-20, 10}, {95, 150}}, 85},
		{"outside", []interval{{200, 300}}, 100},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"covers all", []interval{{0, 100}}, 0},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRatioBase(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", got)
	}
	if got := mean(nil); got != 0 || math.IsNaN(got) {
		t.Errorf("mean(nil) = %v, want 0", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

// TestLRUModel pins the cache model the dblp-cluster sequence is built
// against: Get refreshes recency, a miss fills, capacity evicts the least
// recently used entry.
func TestLRUModel(t *testing.T) {
	c := newLRU(2)
	c.touch("a")
	c.touch("b")
	c.touch("a") // hit: a becomes most recent
	c.touch("c") // miss: evicts b
	if !c.has("a") || c.has("b") || !c.has("c") {
		t.Fatalf("LRU state wrong: a=%v b=%v c=%v", c.has("a"), c.has("b"), c.has("c"))
	}
}

// TestSequenceDeterministic: the same seed yields the same sequence, and
// the dblp-cluster hit slots are exactly the planned share.
func TestSequenceDeterministic(t *testing.T) {
	a := clusterRequestsFor(7, 200)
	b := clusterRequestsFor(7, 200)
	hits, reads := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two builds of the same seed", i)
		}
		if !a[i].write {
			reads++
			if a[i].wantHit {
				hits++
			}
		}
	}
	if want := (reads - resultCacheCap + 3) / 4; hits != want {
		t.Errorf("planned hits = %d of %d reads, want %d", hits, reads, want)
	}
}

func clusterRequestsFor(seed int64, n int) []request {
	return sequence("dblp-cluster", seed, n)
}
