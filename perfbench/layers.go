package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/faultinject"
	"repro/internal/intent"
	"repro/internal/logcat"
	"repro/internal/manifest"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/triage"
	"repro/internal/wearos"
)

// ledgerLayers are the layers the wall-time ledger reports, besides other.
var ledgerLayers = []string{"farm", "service", "triage", "report"}

// traced runs one traced study and the decomposition passes and adds the
// per-layer metrics to m. untracedCPURate is the median intents per
// CPU-second of the untraced studies at the same seed, the base of the
// tracing overhead.
func (b *bench) traced(m map[string]float64, reg *telemetry.Registry, wantSum [32]byte, untracedCPURate float64) error {
	tr := newTracer()
	st, err := b.study(tr, reg)
	if err != nil {
		return err
	}
	if st.svc != nil {
		defer st.svc.close()
	}
	b.attempted++
	if st.sum != wantSum {
		b.fail("traced export %x differs from the untraced export %x", st.sum[:8], wantSum[:8])
	}
	m["trace.overhead_ratio"] = 1 - float64(st.res.Sent)/st.cpu.Seconds()/untracedCPURate

	if err := b.ledger(m, tr); err != nil {
		return err
	}
	if err := b.shardMetrics(m, st); err != nil {
		return err
	}
	b.registryMetrics(m, reg)
	if err := b.outcomeMetrics(m, st, tr); err != nil {
		return err
	}
	if err := b.durablePath(m, st); err != nil {
		return err
	}
	return b.decompose(m)
}

// ledger charges the traced study's wall time to layers and writes the
// spans out next to the run's other artefacts.
func (b *bench) ledger(m map[string]float64, tr *tracer) error {
	spans := tr.closed()
	root := 0
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "study" {
			root = s.ID
		}
	}
	byLayer, other, wall, err := wallLedger(spans, root)
	if err != nil {
		return err
	}
	total := other
	for layer, d := range byLayer {
		total += d
		known := false
		for _, l := range ledgerLayers {
			known = known || l == layer
		}
		if !known {
			return fmt.Errorf("ledger: span layer %q is not reported", layer)
		}
	}
	b.attempted++
	if total != wall {
		b.fail("ledger: layers plus other sum to %v, wall is %v", total, wall)
	}
	m["ledger.wall_ms"] = float64(wall) / float64(time.Millisecond)
	for _, l := range ledgerLayers {
		m["ledger."+l+"_share"] = float64(byLayer[l]) / float64(wall)
	}
	m["ledger.other_share"] = float64(other) / float64(wall)
	return tr.writeFile(filepath.Join(filepath.Dir(b.scratch), b.name+".trace.json"))
}

// shardMetrics summarizes shard durations, queue waits and worker
// utilisation over the execution phase: from the benchmark's own spans in
// process, from the coordinator's status board on the service.
func (b *bench) shardMetrics(m map[string]float64, st studyOut) error {
	secs, waits := st.shardSecs, st.waitSecs
	if st.svc != nil {
		board, err := st.svc.coord.Status(st.svc.id)
		if err != nil {
			return err
		}
		for _, s := range board.Shards {
			secs = append(secs, s.Seconds)
			waits = append(waits, s.QueueWait)
		}
	}
	// The execution phase runs from the first shard's start to the last
	// shard's end; waits are measured from when shards became available.
	ms := make([]float64, len(secs))
	busy, first, last := 0.0, math.Inf(1), 0.0
	for i, s := range secs {
		ms[i] = s * 1000
		busy += s
		first, last = math.Min(first, waits[i]), math.Max(last, waits[i]+s)
	}
	if err := putLatency(m, "farm.shard_ms", ms); err != nil {
		return err
	}
	m["farm.queue_wait_ms"] = median(waits) * 1000
	m["farm.worker_busy_ratio"] = busy / (workers * (last - first))
	return nil
}

// registryMetrics reads the farm's own boot and persist series from the
// registry the traced in-process execution fed (on the service workload,
// the in-process reference study of the same spec).
func (b *bench) registryMetrics(m map[string]float64, reg *telemetry.Registry) {
	reset := reg.Histogram("farm_reset_seconds", telemetry.DefLatencyBuckets)
	clone := reg.Histogram("farm_clone_seconds", telemetry.DefLatencyBuckets)
	if n := reset.Count() + clone.Count(); n > 0 {
		m["farm.boot_us"] = (reset.Sum() + clone.Sum()) / float64(n) * 1e6
	}
	reuses := float64(reg.Counter("farm_persist_reuses_total").Value())
	fallbacks := float64(reg.Counter("farm_persist_fallbacks_total").Value())
	if reuses+fallbacks > 0 {
		m["farm.persist_reuse_ratio"] = reuses / (reuses + fallbacks)
	}
}

// outcomeMetrics derives the study-wide outcome counts from the merged
// result and times the merge and the export.
func (b *bench) outcomeMetrics(m map[string]float64, st studyOut, tr *tracer) error {
	res := st.res
	sent := float64(res.Sent)
	m["wearos.failure_ratio"] = float64(res.Combined.CrashEvents+res.Combined.ANREvents) / sent
	m["logcat.lines_per_intent"] = float64(res.Combined.Entries) / sent
	if res.Triage == nil {
		return fmt.Errorf("traced study has no triage result")
	}
	m["triage.records"] = float64(res.Triage.Crashes)
	m["triage.buckets"] = float64(res.Triage.Unique())
	minimizable, reproduced := 0, 0
	for _, bk := range res.Triage.Buckets {
		if bk.Kind == triage.KindCrash || bk.Kind == triage.KindANR || bk.Kind == "" {
			minimizable++
			if bk.Reproduced {
				reproduced++
			}
		}
	}
	if minimizable > 0 {
		m["triage.reproduced_ratio"] = float64(reproduced) / float64(minimizable)
	}
	for _, s := range tr.closed() {
		ms := float64(s.End-s.Start) / float64(time.Millisecond)
		switch s.Name {
		case "farm.Merge", "coordinator.finalize":
			m["triage.merge_ms"] = ms
		case "service.ExportResult":
			m["report.export_ms"] = ms
		}
	}
	if st.svc != nil {
		// The coordinator renders its export inside finalize; render the
		// same result again to time the renderer on its own.
		start := time.Now()
		export, err := service.ExportResult(res, b.seed)
		m["report.export_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
		b.attempted++
		if err != nil || sha256.Sum256(export) != st.sum {
			b.fail("re-rendered export differs from the served export (%v)", err)
		}
	}
	m["report.export_kb"] = float64(len(st.export)) / 1000
	return nil
}

// recordTimes collects the per-record costs of the durable path.
type recordTimes struct {
	mu                   sync.Mutex
	encode, decode, apnd []float64
	bytes                int64
	records              int
	mismatched           int
}

// measureRecord times one shard record through the durable path's codec
// and an fsynced journal append. Given a result it encodes then decodes
// (the worker's and the coordinator's halves); given journal bytes it
// decodes then re-encodes and checks that the bytes come back unchanged.
func (rt *recordTimes) measureRecord(jnl *farm.ShardJournal, idx int, sr *farm.ShardResult, line []byte) ([]byte, error) {
	var rec []byte
	var enc, dec time.Duration
	var err error
	if line == nil {
		t := time.Now()
		if rec, err = farm.EncodeShardRecord(idx, sr); err != nil {
			return nil, err
		}
		enc = time.Since(t)
		t = time.Now()
		if _, _, err = farm.DecodeShardRecord(rec); err != nil {
			return nil, err
		}
		dec = time.Since(t)
	} else {
		t := time.Now()
		gotIdx, got, err := farm.DecodeShardRecord(line)
		if err != nil {
			return nil, err
		}
		dec = time.Since(t)
		t = time.Now()
		if rec, err = farm.EncodeShardRecord(gotIdx, got); err != nil {
			return nil, err
		}
		enc = time.Since(t)
	}
	t := time.Now()
	if err := jnl.AppendEncoded(rec); err != nil {
		return nil, err
	}
	apnd := time.Since(t)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if line != nil && !bytes.Equal(rec, line) {
		rt.mismatched++
	}
	rt.encode = append(rt.encode, float64(enc)/float64(time.Millisecond))
	rt.decode = append(rt.decode, float64(dec)/float64(time.Millisecond))
	rt.apnd = append(rt.apnd, float64(apnd)/float64(time.Millisecond))
	rt.bytes += int64(len(rec))
	rt.records++
	return rec, nil
}

// durablePath measures every shard record of the traced study through the
// codec and an fsynced journal append, two records at a time. On the
// service workload the records are the coordinator's journal lines. In
// process, the records are also uploaded through a loopback coordinator
// with the lease protocol, which times the service layer on this
// workload's records and must reproduce the study's export.
func (b *bench) durablePath(m map[string]float64, st studyOut) error {
	dir := filepath.Join(b.scratch, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var rt recordTimes
	jnls := make([]*farm.ShardJournal, workers)
	for w := range jnls {
		j, _, _, err := b.plan.OpenJournal(filepath.Join(dir, fmt.Sprintf("w%d.ckpt", w)), false)
		if err != nil {
			return err
		}
		defer j.Close()
		jnls[w] = j
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	var mw *middleware
	if st.svc != nil {
		lines, err := st.svc.journalLines()
		if err != nil {
			return err
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(lines) && errs[w] == nil; i += workers {
					_, errs[w] = rt.measureRecord(jnls[w], 0, nil, lines[i])
				}
			}(w)
		}
		wg.Wait()
		mw = st.svc.mw
	} else {
		s, err := startService("", b.spec, nil)
		if err != nil {
			return err
		}
		defer s.close()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = b.replayUploads(s, &rt, jnls[w], st.results, fmt.Sprintf("replay%d", w))
			}(w)
		}
		wg.Wait()
		export, err := s.client.Export(s.id)
		b.attempted++
		if err != nil || sha256.Sum256(export) != st.sum {
			b.fail("replayed records through the service do not reproduce the export (%v)", err)
		}
		b.countService(s.mw)
		mw = s.mw
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("durable path: %w", err)
		}
	}
	b.attempted += rt.records
	if rt.mismatched > 0 {
		b.failed += rt.mismatched
		b.problems = append(b.problems, fmt.Sprintf("%d journal records do not re-encode to their own bytes", rt.mismatched))
	}
	m["farm.record_kb_per_shard"] = float64(rt.bytes) / float64(rt.records) / 1000
	m["farm.record_encode_ms"] = mean(rt.encode)
	m["farm.record_decode_ms"] = mean(rt.decode)
	if err := putLatency(m, "farm.journal_append_ms", rt.apnd); err != nil {
		return err
	}

	mw.mu.Lock()
	defer mw.mu.Unlock()
	if err := putLatency(m, "service.lease_ms", mw.leaseMs); err != nil {
		return err
	}
	if err := putLatency(m, "service.complete_ms", mw.complMs); err != nil {
		return err
	}
	m["service.upload_mb"] = float64(mw.uploadB) / 1e6
	m["service.uploads_throttled"] = float64(mw.throttled)
	m["service.results_rejected"] = float64(mw.rejected)
	return nil
}

// replayUploads is a service worker that uploads already computed
// results instead of executing shards.
func (b *bench) replayUploads(s *svcHarness, rt *recordTimes, jnl *farm.ShardJournal, results []*farm.ShardResult, name string) error {
	for {
		g, err := s.client.Lease(name)
		if err != nil || g == nil {
			return err
		}
		rec, err := rt.measureRecord(jnl, g.Shard, results[g.Shard], nil)
		if err != nil {
			return err
		}
		if err := s.client.Complete(g.LeaseID, g.Fingerprint, rec); err != nil {
			return err
		}
	}
}

// putLatency stores the p50 and p90 of xs under name.p50 and name.p90.
func putLatency(m map[string]float64, name string, xs []float64) error {
	l := summarize(xs)
	p90, err := l.p90(name)
	if err != nil {
		return err
	}
	m[name+".p50"], m[name+".p90"] = l.P50, p90
	return nil
}

// decompositionShards is how many shards the decomposition pass replays.
const decompositionShards = 24

// decompose replays a fixed sample of shards (evenly spaced in plan
// order, so every campaign is represented) through the public calls of
// the layers inside a shard: core generation alone, then the full
// injection loop on a cloned device with timed analysis and triage
// subscribers. Dispatch time is the loop's time less generation and the
// subscribers; it covers the permission gate, the handler, settling and
// the logcat append.
func (b *bench) decompose(m map[string]float64) error {
	plan := b.plan
	kind := plan.FleetKind()
	tmpl, err := apps.NewFleetTemplate(kind, b.seed)
	if err != nil {
		return err
	}
	snap, err := wearos.New(deviceConfig(kind)).Snapshot()
	if err != nil {
		return err
	}
	stride := max(1, len(plan.Shards())/decompositionShards)
	var genNs, dispatchNs, anaNs, triNs []float64
	dropped := uint64(0)
	for idx := 0; idx < len(plan.Shards()); idx += stride {
		key := plan.Shards()[idx]
		fleet, err := tmpl.Instantiate(key.Package)
		if err != nil {
			return err
		}
		dev := snap.Clone()
		pkg, err := fleet.InstallPackageInto(dev, key.Package)
		if err != nil {
			return err
		}
		ana := &timedSink{sink: analysis.NewCollector()}
		tri := &timedSink{sink: triage.NewCollector()}
		dev.Logcat().Subscribe(ana)
		dev.Logcat().Subscribe(tri)
		dev.SetFlightRecorder(telemetry.NewRecorder(0))

		cfg := b.cfg.Gen
		cfg.Seed = rng.New(b.seed).Split("farm-shard-" + key.String()).Uint64()
		generated, comps := 0, 0
		start := time.Now()
		for _, c := range pkg.Components {
			if c.Type == manifest.Activity || c.Type == manifest.Service {
				comps++
				key.Campaign.Generate(c.Name, cfg, core.QGJUID, func(*intent.Intent) { generated++ })
			}
		}
		gen := time.Since(start)

		var eng *faultinject.Engine
		if key.Campaign == core.CampaignF {
			fseed := rng.New(b.seed).Split("fault-" + key.String()).Uint64()
			eng = faultinject.NewEngine(dev, faultinject.NewPlan(fseed, key.Campaign.CountPerComponent(cfg)*comps), key.Package)
		}
		start = time.Now()
		run := (&core.Injector{Dev: dev, Cfg: cfg}).FuzzApp(key.Campaign, pkg)
		if eng != nil {
			eng.Finish()
		}
		loop := time.Since(start)
		b.attempted++
		if want := plan.EstimatedIntents(idx); run.Sent != want || generated != want {
			b.fail("decomposition shard %s: generated %d, sent %d, plan estimates %d", key, generated, run.Sent, want)
			continue
		}
		n := float64(run.Sent)
		genNs = append(genNs, float64(gen)/n)
		dispatchNs = append(dispatchNs, float64(loop-gen-ana.ns-tri.ns)/n)
		anaNs = append(anaNs, float64(ana.ns)/float64(ana.lines))
		triNs = append(triNs, float64(tri.ns)/float64(tri.lines))
		dropped += dev.Logcat().Dropped()
	}
	// Medians over the sampled shards, so that a stall of the host during
	// one small shard does not move the figure.
	m["core.generate_ns_per_intent"] = median(genNs)
	m["wearos.dispatch_ns_per_intent"] = median(dispatchNs)
	m["analysis.consume_ns_per_line"] = median(anaNs)
	m["triage.consume_ns_per_line"] = median(triNs)
	m["logcat.dropped_lines"] = float64(dropped)
	return nil
}

// timedSink wraps a logcat subscriber and accumulates its time per line.
type timedSink struct {
	sink  logcat.Sink
	ns    time.Duration
	lines int
}

func (t *timedSink) Consume(e logcat.Entry) {
	start := time.Now()
	t.sink.Consume(e)
	t.ns += time.Since(start)
	t.lines++
}
