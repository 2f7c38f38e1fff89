package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// tailPermille lists the percentiles a latency summary may report as its
// tail, in tenths of a percent, highest first.
var tailPermille = []int{999, 990, 900, 500}

// tailPercentile returns the highest percentile of tailPermille that
// leaves at least 10 of n samples beyond it, or 0 when n is too small for
// any of them. With 184 samples that is p90 (18.4 beyond); p99 needs 1000.
func tailPercentile(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// percentile returns the p-th percentile of xs (0 <= p <= 100) by linear
// interpolation between closest ranks, the convention of
// statistics.quantiles(method="inclusive"). xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latency summarizes one set of timings: the sample count, the median,
// and the highest percentile with at least 10 samples beyond it.
type latency struct {
	N     int
	P50   float64
	TailP float64 // 0 when N is too small for any tail
	xs    []float64
}

func summarize(xs []float64) latency {
	return latency{N: len(xs), P50: median(xs), TailP: tailPercentile(len(xs)), xs: xs}
}

// p90 returns the 90th percentile when the samples allow reporting it (at
// least 10 beyond it). Metrics named *.p90 come only from sample sets that
// large, so anything else is a benchmark bug, reported as an error rather
// than a mislabelled value.
func (l latency) p90(name string) (float64, error) {
	if l.TailP < 90 {
		return 0, fmt.Errorf("%s: %d samples are too few for a p90 (need 100)", name, l.N)
	}
	return percentile(l.xs, 90), nil
}

// Metric limits from the benchmark contract.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
	maxNameLen  = 64
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// metricDecl is one declared metric.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validateMetrics checks a metric set against the contract: names of at
// most 64 characters from [A-Za-z0-9_.-] starting with a letter or digit,
// each used once, valid units, and at most max entries.
func validateMetrics(decls []metricDecl, max int) error {
	if len(decls) == 0 {
		return fmt.Errorf("no metrics declared")
	}
	if len(decls) > max {
		return fmt.Errorf("%d metrics declared, at most %d allowed", len(decls), max)
	}
	seen := make(map[string]bool, len(decls))
	for _, d := range decls {
		if len(d.Name) > maxNameLen || !metricName.MatchString(d.Name) {
			return fmt.Errorf("invalid metric name %q", d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if !metricUnit.MatchString(d.Unit) {
			return fmt.Errorf("metric %q: invalid unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %q: better must be lower or higher, got %q", d.Name, d.Better)
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children count once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to p.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// wallLedger splits the root span's wall time among layers. Each instant of
// the root interval is charged to the innermost spans active at it (active
// spans with no active descendant), in equal parts when several run at once
// (two farm workers, say); instants where only the root is active go to
// "other". Where spans nest without overlapping, a layer's charge equals its
// spans' self time. The charges plus "other" sum to the root's duration.
func wallLedger(spans []span, root int) (byLayer map[string]time.Duration, other, wall time.Duration, err error) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	r, ok := byID[root]
	if !ok {
		return nil, 0, 0, fmt.Errorf("ledger: root span %d not recorded", root)
	}
	// Keep the root's descendants, clipped to its interval.
	var sub []span
	for _, s := range spans {
		if s.ID == root || !descends(byID, s, root) {
			continue
		}
		s.Start, s.End = max(s.Start, r.Start), min(s.End, r.End)
		if s.End > s.Start {
			sub = append(sub, s)
		}
	}
	cuts := []time.Duration{r.Start, r.End}
	for _, s := range sub {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	byLayer = make(map[string]time.Duration)
	active := make(map[int]bool)
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		clear(active)
		for _, s := range sub {
			if s.Start <= a && s.End >= b {
				active[s.ID] = true
			}
		}
		var inner []span
		for id := range active {
			if !hasActiveDescendant(byID, id, active) {
				inner = append(inner, byID[id])
			}
		}
		if len(inner) == 0 {
			other += b - a
			continue
		}
		share := (b - a) / time.Duration(len(inner))
		rem := (b - a) - share*time.Duration(len(inner))
		sort.Slice(inner, func(i, j int) bool { return inner[i].ID < inner[j].ID })
		for k, s := range inner {
			d := share
			if k == 0 {
				d += rem // keep the sum exact
			}
			byLayer[s.Layer] += d
		}
	}
	return byLayer, other, r.End - r.Start, nil
}

// descends reports whether s is a (transitive) child of root.
func descends(byID map[int]span, s span, root int) bool {
	for p := s.Parent; p != 0; p = byID[p].Parent {
		if p == root {
			return true
		}
	}
	return false
}

func hasActiveDescendant(byID map[int]span, id int, active map[int]bool) bool {
	for a := range active {
		if a != id && descends(byID, byID[a], id) {
			return true
		}
	}
	return false
}
