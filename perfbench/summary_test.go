package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // p50 leaves 9.5 beyond
		{20, 50},   // p50 leaves 10 beyond
		{99, 50},   // p90 leaves 9.9 beyond
		{100, 90},  // p90 leaves 10 beyond
		{184, 90},  // wear: 184 shards
		{315, 90},  // phone: 315 shards
		{999, 90},  // p99 leaves 9.99 beyond
		{1000, 99}, // p99 leaves 10 beyond
		{10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
}

func TestSummarizeReportsP90OnlyWithTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	l := summarize(xs)
	if l.N != 100 || l.TailP != 90 || l.P50 != 50.5 {
		t.Fatalf("summarize(1..100) = %+v", l)
	}
	if p90, err := l.p90("x"); err != nil || math.Abs(p90-90.1) > 1e-9 {
		t.Errorf("p90 = %v, %v; want 90.1", p90, err)
	}
	if _, err := summarize(xs[:99]).p90("x"); err == nil {
		t.Errorf("p90 of 99 samples succeeded; it leaves fewer than 10 beyond")
	}
}

func TestValidateMetrics(t *testing.T) {
	ok := metricDecl{"farm.shard_ms.p90", "ms", "lower"}
	many := func(n int) []metricDecl {
		out := make([]metricDecl, n)
		for i := range out {
			out[i] = metricDecl{fmt.Sprintf("m%d", i), "count", "higher"}
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		decls []metricDecl
		max   int
		bad   string
	}{
		{"valid", []metricDecl{ok, {"setup_s", "s", "lower"}}, maxEndToEnd, ""},
		{"16 end-to-end", many(16), maxEndToEnd, ""},
		{"17 end-to-end", many(17), maxEndToEnd, "at most 16"},
		{"128 per-layer", many(128), maxPerLayer, ""},
		{"129 per-layer", many(129), maxPerLayer, "at most 128"},
		{"none", nil, maxEndToEnd, "no metrics"},
		{"space", []metricDecl{{"farm shard", "ms", "lower"}}, maxPerLayer, "invalid metric name"},
		{"slash", []metricDecl{{"farm/shard", "ms", "lower"}}, maxPerLayer, "invalid metric name"},
		{"leading dot", []metricDecl{{".farm", "ms", "lower"}}, maxPerLayer, "invalid metric name"},
		{"too long", []metricDecl{{strings.Repeat("a", 65), "ms", "lower"}}, maxPerLayer, "invalid metric name"},
		{"64 long", []metricDecl{{strings.Repeat("a", 64), "ms", "lower"}}, maxPerLayer, ""},
		{"duplicate", []metricDecl{ok, ok}, maxPerLayer, "declared twice"},
		{"unit", []metricDecl{{"x", "m s", "lower"}}, maxPerLayer, "invalid unit"},
		{"better", []metricDecl{{"x", "ms", "less"}}, maxPerLayer, "better must be"},
	} {
		err := validateMetrics(tc.decls, tc.max)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), tc.bad)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.bad)
		}
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimesNested(t *testing.T) {
	// root 0-100 contains a 10-60 and b 50-80 (overlapping siblings) and
	// c 90-120, which runs past the root; a contains a1 20-30.
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(60)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(50), End: ms(80)},
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)},
		{ID: 5, Parent: 2, Name: "a1", Start: ms(20), End: ms(30)},
	}
	want := map[int]time.Duration{
		1: ms(100 - 70 - 10), // children cover 10-80 and 90-100
		2: ms(40),
		3: ms(30),
		4: ms(30),
		5: ms(10),
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestWallLedgerSumsToWall(t *testing.T) {
	// Two workers run shards side by side under the study root; a merge
	// follows; the gaps are unattributed.
	spans := []span{
		{ID: 1, Name: "study", Layer: "study", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "shard", Layer: "farm", Start: ms(0), End: ms(60)},
		{ID: 3, Parent: 1, Name: "shard", Layer: "farm", Start: ms(0), End: ms(40)},
		{ID: 4, Parent: 1, Name: "merge", Layer: "triage", Start: ms(70), End: ms(90)},
		{ID: 5, Parent: 4, Name: "render", Layer: "report", Start: ms(80), End: ms(90)},
		{ID: 6, Name: "outside", Layer: "service", Start: ms(0), End: ms(100)},
	}
	byLayer, other, wall, err := wallLedger(spans, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"farm": ms(60), "triage": ms(10), "report": ms(10)}
	for layer, w := range want {
		if byLayer[layer] != w {
			t.Errorf("%s charged %v, want %v", layer, byLayer[layer], w)
		}
	}
	if byLayer["service"] != 0 {
		t.Errorf("a span outside the root was charged %v", byLayer["service"])
	}
	if other != ms(20) || wall != ms(100) {
		t.Errorf("other = %v, wall = %v; want 20ms and 100ms", other, wall)
	}
	sum := other
	for _, d := range byLayer {
		sum += d
	}
	if sum != wall {
		t.Errorf("ledger sums to %v, wall is %v", sum, wall)
	}
}

func TestWallLedgerMatchesSelfTimesWithoutOverlap(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "study", Start: ms(0), End: ms(50)},
		{ID: 2, Parent: 1, Layer: "farm", Start: ms(5), End: ms(30)},
		{ID: 3, Parent: 2, Layer: "triage", Start: ms(10), End: ms(20)},
		{ID: 4, Parent: 1, Layer: "report", Start: ms(30), End: ms(45)},
	}
	byLayer, other, _, err := wallLedger(spans, 1)
	if err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	if byLayer["farm"] != self[2] || byLayer["triage"] != self[3] || byLayer["report"] != self[4] || other != self[1] {
		t.Errorf("ledger %v other %v disagrees with self times %v", byLayer, other, self)
	}
}

func TestWallLedgerUnknownRoot(t *testing.T) {
	if _, _, _, err := wallLedger(nil, 1); err == nil {
		t.Error("ledger over no spans succeeded")
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps the metric names and units the
// program prints in step with the repository's BENCHMARK.json.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name      string
		got, want []metricDecl
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(set.got) != len(set.want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", set.name, len(set.got), len(set.want))
			continue
		}
		for i := range set.want {
			if set.got[i] != set.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", set.name, i, set.got[i], set.want[i])
			}
		}
	}
}
