package farm_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// bootStrategy rewrites a farm config onto one of the reference boot
// strategies (farm.FreshBoot, farm.ClonePerShard); nil keeps production.
type bootStrategy func(farm.Config) farm.Config

// strategyRun runs the test study on farm.Run with the given sharding and
// boot strategy.
func strategyRun(t *testing.T, sharding core.Sharding, boot bootStrategy) *farm.Result {
	t.Helper()
	cfg := farm.Config{Seed: 1, Gen: testGen(), Packages: testPackages, Sharding: sharding}
	if boot != nil {
		cfg = boot(cfg)
	}
	res, err := farm.Run(cfg)
	if err != nil {
		t.Fatalf("study: %v", err)
	}
	return res
}

// resultExport renders a farm result as the canonical service export,
// which leaves out the execution metadata.
func resultExport(t *testing.T, res *farm.Result) string {
	t.Helper()
	data, err := service.ExportResult(res, 1)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	return string(data)
}

// TestSnapshotMatchesFreshBootMerge is the boot-strategy acceptance gate:
// the production path (persist with clone fallback) and the clone-per-shard
// reference must produce a byte-identical merged study for any worker
// count, compared against the fresh-boot path. The fresh-boot serial run is
// the reference; every other (strategy, workers) combination must match.
func TestSnapshotMatchesFreshBootMerge(t *testing.T) {
	want := resultExport(t, strategyRun(t, core.Sharding{Workers: 1}, farm.FreshBoot))
	for _, tc := range []struct {
		name    string
		workers int
		boot    bootStrategy
	}{
		// Production runs persistent mode (snapshot clones plus hot-device
		// reuse), so the workers=N rows also prove the persistent
		// executor's reuse path merges byte-identically.
		{"persist/workers=1", 1, nil},
		{"persist/workers=4", 4, nil},
		{"persist/workers=8", 8, nil},
		{"clone-per-shard/workers=1", 1, farm.ClonePerShard},
		{"clone-per-shard/workers=8", 8, farm.ClonePerShard},
		{"freshboot/workers=4", 4, farm.FreshBoot},
	} {
		if got := resultExport(t, strategyRun(t, core.Sharding{Workers: tc.workers}, tc.boot)); got != want {
			t.Errorf("%s export differs from fresh-boot serial run:\n--- fresh serial ---\n%s\n--- %s ---\n%s",
				tc.name, want, tc.name, got)
		}
	}
}

// TestCheckpointCrossSnapshotModes pins that the boot strategy stays out of
// the checkpoint fingerprint: a journal written by a fresh-boot run resumes
// cleanly under the production and clone-per-shard paths (and vice versa)
// with identical output.
func TestCheckpointCrossSnapshotModes(t *testing.T) {
	dir := t.TempDir()
	offJournal := filepath.Join(dir, "off.ckpt")
	killed := filepath.Join(dir, "killed.ckpt")

	uninterrupted := strategyRun(t, core.Sharding{Workers: 2, Checkpoint: offJournal}, farm.FreshBoot)
	want := resultExport(t, uninterrupted)

	// Tear the fresh-boot journal after three shards (header + 3 records +
	// a torn partial line), then resume it on the production path.
	data, err := os.ReadFile(offJournal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	const keep = 3
	if len(lines) < keep+2 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	torn := strings.Join(lines[:1+keep], "\n") + "\n" + `{"index":5,"key":{"camp`
	if err := os.WriteFile(killed, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	killedClone := filepath.Join(dir, "killed-clone.ckpt")
	if err := os.WriteFile(killedClone, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := strategyRun(t, core.Sharding{Workers: 2, Checkpoint: killed, Resume: true}, nil)
	if got := resultExport(t, resumed); got != want {
		t.Errorf("production resume of a fresh-boot journal differs:\n--- fresh-boot full ---\n%s\n--- resumed ---\n%s", want, got)
	}
	if resumed.Resumed != keep {
		t.Fatalf("resumed = %d shards, want %d", resumed.Resumed, keep)
	}

	// The same torn fresh-boot journal resumes under clone-per-shard with
	// identical output (the resume above exercised persistent mode).
	resumedClone := strategyRun(t, core.Sharding{Workers: 2, Checkpoint: killedClone, Resume: true}, farm.ClonePerShard)
	if got := resultExport(t, resumedClone); got != want {
		t.Error("clone-per-shard resume of a fresh-boot journal differs")
	}
	if resumedClone.Resumed != keep {
		t.Fatalf("clone-per-shard resumed = %d shards, want %d", resumedClone.Resumed, keep)
	}

	// The opposite direction: the journal completed on the production path
	// replays fully under fresh boots.
	replayed := strategyRun(t, core.Sharding{Workers: 2, Checkpoint: killed, Resume: true}, farm.FreshBoot)
	if got := resultExport(t, replayed); got != want {
		t.Error("fresh-boot replay of a production-completed journal differs")
	}
	if replayed.Resumed != replayed.Shards {
		t.Fatalf("replay resumed %d of %d shards", replayed.Resumed, replayed.Shards)
	}
}

// TestSnapshotTelemetry verifies the farm boot metrics across the three
// boot strategies. Production (persistent mode): every shard records one
// cache outcome and one queue wait, and comes up either by hot-device
// reuse (one reset latency) or by a fallback clone (one clone latency) —
// the two must account for every shard. Clone-per-shard (an executor used
// once): one cold-start fallback clone per shard, never a reset.
// Fresh boot: none of the above. The boot cache is process-global (earlier
// tests may have warmed it), so the hit/miss split is not asserted — only
// the total.
func TestSnapshotTelemetry(t *testing.T) {
	run := func(boot bootStrategy) telemetry.Snapshot {
		cfg := farm.Config{
			Seed:      1,
			Packages:  testPackages,
			Gen:       testGen(),
			Sharding:  core.Sharding{Workers: 4},
			Telemetry: telemetry.NewRegistry(),
		}
		if boot != nil {
			cfg = boot(cfg)
		}
		res, err := farm.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shards != 4*len(testPackages) {
			t.Fatalf("shards = %d, want %d", res.Shards, 4*len(testPackages))
		}
		return cfg.Telemetry.Snapshot()
	}
	shards := uint64(4 * len(testPackages))

	snap := run(nil)
	hits := snap.Counters["farm_snapshot_hits_total"]
	misses := snap.Counters["farm_snapshot_misses_total"]
	if hits+misses != shards {
		t.Fatalf("snapshot hits(%d)+misses(%d) = %d, want %d (one outcome per shard)",
			hits, misses, hits+misses, shards)
	}
	reuses := snap.Counters["farm_persist_reuses_total"]
	retires := snap.Counters["farm_persist_retires_total"]
	fallbacks := snap.Counters["farm_persist_fallbacks_total"]
	if reuses+fallbacks != shards {
		t.Fatalf("persist reuses(%d)+fallbacks(%d) = %d, want %d (every shard reuses or clones)",
			reuses, fallbacks, reuses+fallbacks, shards)
	}
	if reuses == 0 {
		t.Fatal("persistent run recorded zero hot-device reuses")
	}
	if got := snap.Histograms["farm_clone_seconds"].Count; got != fallbacks {
		t.Fatalf("farm_clone_seconds count = %d, want %d (one per fallback clone)", got, fallbacks)
	}
	if got := snap.Histograms["farm_reset_seconds"].Count; got != reuses+retires {
		t.Fatalf("farm_reset_seconds count = %d, want %d (one per reset attempt)", got, reuses+retires)
	}
	if got := snap.Histograms["farm_shard_queue_wait_seconds"].Count; got != shards {
		t.Fatalf("farm_shard_queue_wait_seconds count = %d, want %d", got, shards)
	}

	clone := run(farm.ClonePerShard)
	if got := clone.Histograms["farm_clone_seconds"].Count; got != shards {
		t.Fatalf("farm_clone_seconds count = %d, want %d", got, shards)
	}
	if got := clone.Counters["farm_persist_fallbacks_total"]; got != shards {
		t.Fatalf("clone-per-shard run recorded %d fallback clones, want %d", got, shards)
	}
	if n := clone.Counters["farm_persist_reuses_total"] + clone.Counters["farm_persist_retires_total"] +
		clone.Histograms["farm_reset_seconds"].Count; n != 0 {
		t.Fatalf("clone-per-shard run recorded %d resets", n)
	}

	off := run(farm.FreshBoot)
	if n := off.Counters["farm_snapshot_hits_total"] + off.Counters["farm_snapshot_misses_total"]; n != 0 {
		t.Fatalf("fresh-boot run recorded %d snapshot cache outcomes", n)
	}
	if got := off.Histograms["farm_clone_seconds"].Count; got != 0 {
		t.Fatalf("fresh-boot run recorded %d clone latencies", got)
	}
	if n := off.Counters["farm_persist_reuses_total"] + off.Counters["farm_persist_fallbacks_total"]; n != 0 {
		t.Fatalf("fresh-boot run recorded %d persist outcomes", n)
	}
}

// TestRebootManifestsOnClonedShard is the BootCount regression test for the
// FIC reboot-manifestation path: the full-scale campaign A run against
// com.motorola.omni drives the paper's sensor-service escalation to a
// device reboot. A cloned shard device must report the same reboot and the
// same BootCount (template boot + its own reboot) as a fresh boot.
func TestRebootManifestsOnClonedShard(t *testing.T) {
	run := func(boot bootStrategy) *farm.Result {
		cfg := farm.Config{
			Seed:      1,
			Packages:  []string{"com.motorola.omni"},
			Campaigns: []core.Campaign{core.CampaignA},
			// Zero Gen = full paper scale; the reboot needs the full action
			// matrix to accumulate three sensor-listener ANRs.
			Gen:      core.GeneratorConfig{},
			Sharding: core.Sharding{Workers: 1},
		}
		if boot != nil {
			cfg = boot(cfg)
		}
		res, err := farm.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	snapRes, freshRes := run(nil), run(farm.FreshBoot)
	for name, res := range map[string]*farm.Result{"snapshot": snapRes, "fresh-boot": freshRes} {
		cr := res.Campaigns[0]
		if len(cr.Report.RebootTimes) != 1 {
			t.Fatalf("%s: reboots = %d, want 1 (sensor-service escalation)", name, len(cr.Report.RebootTimes))
		}
		sum := cr.Summaries[0]
		if sum.Reboots != 1 {
			t.Fatalf("%s: summary reboots = %d, want 1", name, sum.Reboots)
		}
		if sum.BootCount != 2 {
			t.Fatalf("%s: shard BootCount = %d, want 2 (template boot + campaign reboot)", name, sum.BootCount)
		}
	}
	if !reflect.DeepEqual(snapRes.Campaigns[0].Summaries, freshRes.Campaigns[0].Summaries) {
		t.Errorf("shard summaries diverge:\nsnapshot:   %+v\nfresh-boot: %+v",
			snapRes.Campaigns[0].Summaries, freshRes.Campaigns[0].Summaries)
	}
	snapJSON, _ := json.Marshal(snapRes.Campaigns[0].Report)
	freshJSON, _ := json.Marshal(freshRes.Campaigns[0].Report)
	if string(snapJSON) != string(freshJSON) {
		t.Errorf("campaign reports diverge:\nsnapshot:   %s\nfresh-boot: %s", snapJSON, freshJSON)
	}
}
