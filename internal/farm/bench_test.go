package farm_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/farm"
)

// The benchmark pair quantifies the farm's reason to exist: the same
// campaign, serial versus eight workers. Triage is disabled so the numbers
// measure shard execution and merge, not minimization.
var benchPackages = []string{
	"com.heartwatch.wear", "com.strava.wear", "com.whatsapp.wear",
	"com.endomondo.wear", "com.evernote.wear", "com.accuweather.wear",
	"com.citymapper.wear", "com.duolingo.wear",
}

func runBench(b *testing.B, workers int, boot bootStrategy) {
	b.Helper()
	cfg := farm.Config{
		Seed:          1,
		Packages:      benchPackages,
		Gen:           experiments.QuickGen(4),
		Sharding:      core.Sharding{Workers: workers},
		DisableTriage: true,
	}
	if boot != nil {
		cfg = boot(cfg)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := farm.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Sent == 0 {
			b.Fatal("benchmark campaign sent nothing")
		}
		b.ReportMetric(float64(res.Sent), "intents/op")
	}
}

func BenchmarkCampaign_Serial(b *testing.B) { runBench(b, 1, nil) }

func BenchmarkCampaign_Farm8(b *testing.B) { runBench(b, 8, nil) }

// The boot-strategy acceptance triple: the identical run executed three
// ways. Persist (production) keeps one hot device per worker and resets it
// in place between shards; Snapshot clones a device per shard
// (farm.ClonePerShard); FreshBoot boots and rebuilds the fleet per shard
// (farm.FreshBoot). scripts/benchgate enforces the ≥2x snapshot-over-fresh
// and ≥3x persist-over-snapshot speedup floors on these ratios.
func BenchmarkFarm8Persist(b *testing.B) { runBench(b, 8, nil) }

func BenchmarkFarm8Snapshot(b *testing.B) { runBench(b, 8, farm.ClonePerShard) }

func BenchmarkFarm8FreshBoot(b *testing.B) { runBench(b, 8, farm.FreshBoot) }

// crashHeavyRecord is the fixed record of the codec benchmark pair: shard
// A/com.robinhood.wear of the wear fleet at quick-4, seed 1 — 318 crash
// records carrying 20,352 flight-recorder events, ~4.4 MB, the shape that
// dominates the durable path's bytes.
var crashHeavyRecord = sync.OnceValues(func() (*farm.ShardResult, error) {
	plan, err := farm.NewPlan(farm.Config{
		Seed:      1,
		Campaigns: []core.Campaign{core.CampaignA},
		Packages:  []string{"com.robinhood.wear"},
		Gen:       experiments.QuickGen(4),
	})
	if err != nil {
		return nil, err
	}
	return plan.ExecuteShard(0)
})

// BenchmarkShardRecordEncode and BenchmarkShardRecordDecode time the
// shard-record codec (worker upload, coordinator journal, checkpoint
// appends and resume all go through it) on crashHeavyRecord.
func BenchmarkShardRecordEncode(b *testing.B) {
	sr, err := crashHeavyRecord()
	if err != nil {
		b.Fatal(err)
	}
	rec, err := farm.EncodeShardRecord(0, sr)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := farm.EncodeShardRecord(0, sr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardRecordDecode(b *testing.B) {
	sr, err := crashHeavyRecord()
	if err != nil {
		b.Fatal(err)
	}
	rec, err := farm.EncodeShardRecord(0, sr)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := farm.DecodeShardRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}
