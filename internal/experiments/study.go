// Package experiments runs the paper's studies end-to-end: shard QGJ's
// campaigns against every app of a fleet onto the farm engine
// (internal/farm), analyze the logs, and aggregate the tables and
// figures. Both the benchmark harness (bench_test.go) and cmd/report
// regenerate every paper artifact through this package.
package experiments

import (
	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/telemetry"
	"repro/internal/triage"
)

// Options configures a study run.
type Options struct {
	// Seed drives fleet construction and intent generation.
	Seed uint64
	// Gen scales generation; zero value = full paper scale.
	Gen core.GeneratorConfig
	// Packages optionally restricts the run to the named packages (tests);
	// nil fuzzes the whole fleet.
	Packages []string
	// Campaigns optionally restricts the run to the listed FICs; nil runs
	// all four in Table I order.
	Campaigns []core.Campaign
	// Progress, when non-nil, is called after each (campaign, app) shard,
	// in completion order.
	Progress func(campaign core.Campaign, pkg string, sentSoFar int)
	// Sharding sets the farm's worker count and checkpoint journal.
	Sharding core.Sharding
	// Telemetry, when non-nil, receives the farm's execution metrics; nil
	// gives the study a private registry. Either way StudyResult.Telemetry
	// snapshots it when the study ends.
	Telemetry *telemetry.Registry
	// Status, when non-nil, is kept current with the farm's live shard
	// table — serve it with farm.StatusHandler.
	Status *farm.StatusBoard
}

// CampaignOutcome holds the per-campaign view needed for Table III.
type CampaignOutcome struct {
	Campaign core.Campaign
	Report   *analysis.Report
	Sent     int
	// Summaries holds the QGJ-style per-app summaries for this campaign.
	Summaries []core.Summary
}

// StudyResult is the complete outcome of one fuzzing study.
type StudyResult struct {
	Fleet     *apps.Fleet
	Campaigns []CampaignOutcome
	// Combined merges the per-campaign reports (Figs. 2-4, Table IV).
	Combined *analysis.Report
	Sent     int
	// Triage holds deduplicated crash buckets.
	Triage *triage.Result
	// Sharding describes how the farm executed the study.
	Sharding *ShardingInfo
	// Telemetry snapshots the farm registry the study ran with (device,
	// fuzzer and farm metrics aggregated over every shard), taken when the
	// study ended.
	Telemetry *telemetry.Snapshot
	// LogDropped counts the lines full logcat rings evicted during the
	// study (see farm.Result.LogDropped). The analyzers consumed every
	// line as it was logged; only readers of the retained ring miss them.
	LogDropped uint64
}

// ShardingInfo records how a study was executed.
type ShardingInfo struct {
	Workers    int
	Shards     int
	Resumed    int
	Checkpoint string
}

// Reboots returns how many device reboots occurred across the study.
func (sr *StudyResult) Reboots() int {
	n := 0
	for _, c := range sr.Campaigns {
		n += len(c.Report.RebootTimes)
	}
	return n
}

// CampaignOutcomeFor returns the outcome for campaign c, or nil.
func (sr *StudyResult) CampaignOutcomeFor(c core.Campaign) *CampaignOutcome {
	for i := range sr.Campaigns {
		if sr.Campaigns[i].Campaign == c {
			return &sr.Campaigns[i]
		}
	}
	return nil
}

// RunWearStudy executes the QGJ-Master study on the simulated watch: all
// four campaigns against the Table II fleet.
func RunWearStudy(opts Options) (*StudyResult, error) {
	return runFarmStudy(apps.WearFleet, opts)
}

// RunPhoneStudy executes the comparison study on the simulated Android
// phone (Table IV).
func RunPhoneStudy(opts Options) (*StudyResult, error) {
	return runFarmStudy(apps.PhoneFleet, opts)
}

// runFarmStudy executes a study on the farm engine — one device per
// worker, reset or cloned per (campaign, package) shard, checkpoint/resume,
// and crash triage — and adapts the merged farm result to the StudyResult
// shape every table and figure function consumes. The result is
// byte-identical for any worker count and across kill/resume.
func runFarmStudy(kind apps.FleetKind, opts Options) (*StudyResult, error) {
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	cfg := farm.Config{
		Seed:      opts.Seed,
		Fleet:     kind,
		Campaigns: opts.Campaigns,
		Packages:  opts.Packages,
		Gen:       opts.Gen,
		Sharding:  opts.Sharding,
		Telemetry: reg,
		Status:    opts.Status,
	}
	if opts.Progress != nil {
		cfg.Progress = func(done, total int, key farm.ShardKey, sentSoFar int) {
			opts.Progress(key.Campaign, key.Package, sentSoFar)
		}
	}
	fres, err := farm.Run(cfg)
	if err != nil {
		return nil, err
	}
	snap := reg.Snapshot()
	sr := &StudyResult{
		Fleet:      fres.Fleet,
		Combined:   fres.Combined,
		Sent:       fres.Sent,
		Triage:     fres.Triage,
		Telemetry:  &snap,
		LogDropped: fres.LogDropped,
		Sharding: &ShardingInfo{
			Workers:    fres.Workers,
			Shards:     fres.Shards,
			Resumed:    fres.Resumed,
			Checkpoint: opts.Sharding.Checkpoint,
		},
	}
	for _, cr := range fres.Campaigns {
		sr.Campaigns = append(sr.Campaigns, CampaignOutcome{
			Campaign:  cr.Campaign,
			Report:    cr.Report,
			Sent:      cr.Sent,
			Summaries: cr.Summaries,
		})
	}
	return sr, nil
}

// QuickGen returns a scaled-down generator configuration for tests and
// fast demo runs: roughly 1/k^2 of campaign A's volume.
func QuickGen(k int) core.GeneratorConfig {
	if k < 1 {
		k = 1
	}
	return core.GeneratorConfig{
		ActionStride:   k,
		SchemeStride:   (k + 1) / 2,
		RandomVariants: 1,
		ExtrasVariants: 1,
	}
}
