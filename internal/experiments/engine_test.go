package experiments_test

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
)

// TestEngineInvariance pins that a study has one engine: the export is the
// same whether Workers is left at zero or set to one or four. Only the
// recorded worker count and the telemetry snapshot (which holds timings)
// may differ.
func TestEngineInvariance(t *testing.T) {
	export := func(workers int) string {
		t.Helper()
		sr, err := experiments.RunWearStudy(experiments.Options{
			Seed:     1,
			Gen:      experiments.QuickGen(10),
			Packages: []string{"com.heartwatch.wear", "com.strava.wear", "com.whatsapp.wear"},
			Sharding: core.Sharding{Workers: workers},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		exp := report.ExportStudy(sr, 1)
		if exp.Telemetry == nil {
			t.Fatalf("workers=%d: export has no telemetry section", workers)
		}
		if exp.Sharding == nil {
			t.Fatalf("workers=%d: export has no sharding section", workers)
		}
		exp.Telemetry = nil
		exp.Sharding.Workers = 0
		data, err := json.MarshalIndent(exp, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	want := export(0)
	for _, workers := range []int{1, 4} {
		if got := export(workers); got != want {
			t.Errorf("workers=%d export differs from workers=0:\n--- workers=0 ---\n%s\n--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}
