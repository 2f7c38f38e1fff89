// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload — a complete fuzz study — through the production entry
// points (farm.Run, or the farm service over loopback HTTP), checks the
// export, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run adds a traced study and a decomposition pass and prints the
// per-layer metrics instead. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/farm"
	"repro/internal/telemetry"
)

// Declared metrics. BENCHMARK.json lists the same names and units; a test
// keeps the two in step.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"intents_per_s", "1/s", "higher"},
	{"intents_per_cpu_s", "1/cpu-s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"durable_mb", "MB", "lower"},
}

var perLayer = []metricDecl{
	{"farm.plan_ms", "ms", "lower"},
	{"farm.shard_ms.p50", "ms", "lower"},
	{"farm.shard_ms.p90", "ms", "lower"},
	{"farm.boot_us", "us", "lower"},
	{"farm.persist_reuse_ratio", "ratio", "higher"},
	{"farm.queue_wait_ms", "ms", "lower"},
	{"farm.worker_busy_ratio", "ratio", "higher"},
	{"farm.record_kb_per_shard", "KB", "lower"},
	{"farm.record_encode_ms", "ms", "lower"},
	{"farm.record_decode_ms", "ms", "lower"},
	{"farm.journal_append_ms.p50", "ms", "lower"},
	{"farm.journal_append_ms.p90", "ms", "lower"},
	{"core.generate_ns_per_intent", "ns", "lower"},
	{"wearos.dispatch_ns_per_intent", "ns", "lower"},
	{"wearos.failure_ratio", "ratio", "higher"},
	{"logcat.lines_per_intent", "lines/intent", "lower"},
	{"logcat.dropped_lines", "count", "lower"},
	{"analysis.consume_ns_per_line", "ns", "lower"},
	{"triage.consume_ns_per_line", "ns", "lower"},
	{"triage.records", "count", "higher"},
	{"triage.buckets", "count", "higher"},
	{"triage.merge_ms", "ms", "lower"},
	{"triage.reproduced_ratio", "ratio", "higher"},
	{"service.lease_ms.p50", "ms", "lower"},
	{"service.lease_ms.p90", "ms", "lower"},
	{"service.complete_ms.p50", "ms", "lower"},
	{"service.complete_ms.p90", "ms", "lower"},
	{"service.upload_mb", "MB", "lower"},
	{"service.uploads_throttled", "count", "lower"},
	{"service.results_rejected", "count", "lower"},
	{"report.export_ms", "ms", "lower"},
	{"report.export_kb", "KB", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"failed_op_ratio", "ratio", "lower"},
	{"ledger.wall_ms", "ms", "lower"},
	{"ledger.farm_share", "ratio", "lower"},
	{"ledger.service_share", "ratio", "lower"},
	{"ledger.triage_share", "ratio", "lower"},
	{"ledger.report_share", "ratio", "lower"},
	{"ledger.other_share", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

const (
	// setupReps is how many times a run repeats set-up; setup_s is the
	// median.
	setupReps = 21
	// minSeeds is the fewest study seeds a run measures.
	minSeeds = 2
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// logw is the benchmark's own diagnostics stream: the process's original
// standard error. os.Stderr itself is redirected to a file so that the
// program's warnings (such as the logcat ring-full line) stay out of the
// benchmark output.
var logw = os.Stderr

func main() {
	workload := flag.String("workload", "", "workload name: wear_study, wear_service or phone_triage")
	seed := flag.Uint64("seed", 1, "study seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "how long to keep starting new studies")
	trace := flag.Int("trace", 0, "1 runs the traced study and prints the per-layer metrics")
	scratch := flag.String("scratch", ".bench_build", "directory for scratch files, traces and captured program stderr")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *scratch); err != nil {
		fmt.Fprintln(logw, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, scratch string) error {
	for _, set := range []struct {
		decls []metricDecl
		max   int
	}{{endToEnd, maxEndToEnd}, {perLayer, maxPerLayer}} {
		if err := validateMetrics(set.decls, set.max); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "run-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	stderrPath := filepath.Join(scratch, name+".stderr.log")
	captured, err := os.Create(stderrPath)
	if err != nil {
		return err
	}
	defer captured.Close()
	os.Stderr = captured

	b, err := newBench(name, seed, dir)
	if err != nil {
		return err
	}
	metrics, err := b.measureRun(time.Duration(seconds)*time.Second, traced)
	if err != nil {
		return err
	}
	if info, err := captured.Stat(); err == nil && info.Size() > 0 {
		fmt.Fprintf(logw, "perfbench: program stderr (%d bytes) captured in %s\n", info.Size(), stderrPath)
	}
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	out := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (got %v)", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-32s %16s %s\n", d.Name, strconv.FormatFloat(v, 'g', 8, 64), d.Unit)
	}
	for _, p := range b.problems {
		fmt.Fprintln(logw, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%d check(s) failed", len(b.problems))
	}
	return nil
}

// measureRun performs the run: repeated set-up, then studies until the
// time is up (at least minSeeds), the export checks, and with traced the
// traced study and decomposition. It returns every metric it measured.
func (b *bench) measureRun(budget time.Duration, traced bool) (map[string]float64, error) {
	m := map[string]float64{}
	var reg *telemetry.Registry
	if traced {
		reg = telemetry.NewRegistry()
	}
	if err := b.warm(); err != nil {
		return nil, err
	}
	var setups, plans []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		s, err := b.setupOnce()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, s.total.Seconds())
		plans = append(plans, float64(s.plan)/float64(time.Millisecond))
	}
	m["setup_s"] = median(setups)
	m["farm.plan_ms"] = median(plans)

	// Studies at independent seeds until the time is up: the workload's
	// cost depends on how crash-prone the seed's fleet is, so a run
	// averages over several fleets rather than timing one repeatedly.
	var rates, cpuRates, rss, durable, alloc, gcs, gcFrac []float64
	var firstSum [32]byte
	start := time.Now()
	for j := 0; j < minSeeds || time.Since(start) < budget; j++ {
		sb, err := b.withSeed(panelSeed(b.seed, j))
		if err != nil {
			return nil, err
		}
		if err := sb.warm(); err != nil {
			return nil, err
		}
		rt0 := readRuntime()
		st, err := sb.study(nil, nil)
		if err != nil {
			return nil, err
		}
		rt := readRuntime().sub(rt0)
		alloc, gcs, gcFrac = append(alloc, rt.allocMB), append(gcs, rt.gcCycles), append(gcFrac, rt.gcCPUFraction())
		rates = append(rates, float64(st.res.Sent)/st.wall.Seconds())
		cpuRates = append(cpuRates, float64(st.res.Sent)/st.cpu.Seconds())
		rss = append(rss, st.peakRSSMB)
		durable = append(durable, float64(st.durable)/1e6)
		if j == 0 {
			firstSum = st.sum
		}
		if sb.w.viaService {
			// The service's export must be byte-identical to the
			// in-process study's for the same spec.
			var ref studyOut
			if j == 0 {
				ref, err = sb.inProcess(nil, reg)
			} else {
				ref, err = sb.inProcess(nil, nil)
			}
			sb.attempted++
			if err != nil {
				sb.fail("seed %d: in-process reference study: %v", sb.seed, err)
			} else if ref.sum != st.sum {
				sb.fail("seed %d: service export %x differs from the in-process export %x", sb.seed, st.sum[:8], ref.sum[:8])
			}
		}
		fmt.Fprintf(logw, "perfbench: %s seed %d: %d intents, %.2fs wall, %.2fs cpu, %.1f MB durable, %.0f MB peak RSS, export sha256 %x\n",
			b.name, sb.seed, st.res.Sent, st.wall.Seconds(), st.cpu.Seconds(), float64(st.durable)/1e6, st.peakRSSMB, st.sum[:8])
	}
	m["intents_per_s"] = median(rates)
	m["intents_per_cpu_s"] = median(cpuRates)
	m["peak_rss_mb"] = median(rss)
	m["durable_mb"] = median(durable)
	m["runtime.alloc_mb"] = median(alloc)
	m["runtime.gc_cycles"] = median(gcs)
	m["runtime.gc_cpu_fraction"] = median(gcFrac)

	// A repeat of the first study must export the same bytes.
	again, err := b.study(nil, nil)
	if err != nil {
		return nil, err
	}
	b.attempted++
	if again.sum != firstSum {
		b.fail("repeat of seed %d: export SHA-256 %x differs from %x", b.seed, again.sum[:8], firstSum[:8])
	}
	baseCPURate := median([]float64{cpuRates[0], float64(again.res.Sent) / again.cpu.Seconds()})
	if traced {
		if err := b.traced(m, reg, firstSum, baseCPURate); err != nil {
			return nil, err
		}
	}
	m["failed_op_ratio"] = float64(b.failed) / float64(max(b.attempted, 1))
	return m, nil
}

// study runs one study of the workload and checks its Sent count.
func (b *bench) study(tr *tracer, reg *telemetry.Registry) (studyOut, error) {
	var st studyOut
	var err error
	if b.w.viaService {
		st, err = b.viaService(tr)
		if st.svc != nil {
			b.countService(st.svc.mw)
			if tr == nil {
				if cerr := st.svc.close(); err == nil {
					err = cerr
				}
				st.svc = nil
			}
		}
	} else {
		st, err = b.inProcess(tr, reg)
	}
	b.attempted += len(b.plan.Shards())
	if err != nil {
		b.fail("study: %v", err)
		return st, fmt.Errorf("%s study: %w", b.name, err)
	}
	b.attempted++
	if st.res.Sent != b.want {
		b.fail("export reports %d intents sent, plan estimates %d", st.res.Sent, b.want)
	}
	return st, nil
}

// countService folds a study's HTTP outcomes into the run's operations:
// each request is attempted, and throttled, rejected or otherwise failed
// requests and lost leases are failed operations. They do not make the run
// incorrect by themselves: the protocol retries them, and the export
// checks decide whether the result suffered.
func (b *bench) countService(mw *middleware) {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	b.attempted += mw.requests
	b.failed += mw.failures + mw.lost
}

// warm runs the plan's smallest shard so that the farm's template cache
// holds this seed's fleet and device templates before a study is timed:
// building them is set-up, which setup_s measures.
func (b *bench) warm() error {
	_, err := b.plan.ExecuteShard(smallestShard(b.plan))
	return err
}

// smallestShard returns the plan index with the fewest intents.
func smallestShard(plan *farm.Plan) int {
	best := 0
	for i := range plan.Shards() {
		if plan.EstimatedIntents(i) < plan.EstimatedIntents(best) {
			best = i
		}
	}
	return best
}

// quiesce collects garbage, returns it to the OS and resets the peak RSS
// mark, so that a study's peak is its own.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+). Where it is not
	// allowed the peak stays process-wide, which only makes it coarser.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size since the last
// quiesce.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
