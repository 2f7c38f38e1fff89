// Package experiments runs the paper's studies end-to-end: build a fleet,
// boot a simulated device, drive QGJ's campaigns against every app,
// analyze the logs, and aggregate the tables and figures. Both the
// benchmark harness (bench_test.go) and cmd/report regenerate every paper
// artifact through this package.
package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/logcat"
	"repro/internal/manifest"
	"repro/internal/telemetry"
	"repro/internal/triage"
	"repro/internal/wearos"
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
	// Progress, when non-nil, is called after each (campaign, app) unit.
	Progress func(campaign core.Campaign, pkg string, sentSoFar int)
	// Sharding, when enabled (workers > 1 or a checkpoint path), routes the
	// study through the farm engine: device-per-shard parallel execution
	// with checkpoint/resume and crash triage. See docs/farm.md for how the
	// farm's results relate to the serial single-device study.
	Sharding core.Sharding
	// Telemetry, when non-nil, receives farm execution metrics (farm mode
	// only; the serial path's device carries its own registry).
	Telemetry *telemetry.Registry
	// Status, when non-nil, is kept current with the farm's live shard
	// table (farm mode only) — serve it with farm.StatusHandler.
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
	Fleet *apps.Fleet
	// Device is the single simulated device of a serial run; nil for farm
	// runs, which boot one device per shard.
	Device    *wearos.OS
	Campaigns []CampaignOutcome
	// Combined merges the per-campaign reports (Figs. 2-4, Table IV).
	Combined *analysis.Report
	Sent     int
	// Triage holds deduplicated crash buckets (farm runs only; nil for the
	// serial path).
	Triage *triage.Result
	// Sharding describes how a farm run executed; nil for serial runs.
	Sharding *ShardingInfo
	// LogDropped counts the lines full logcat rings evicted during the
	// study (see farm.Result.LogDropped). The analyzers consumed every
	// line as it was logged; only readers of the retained ring miss them.
	LogDropped uint64
}

// ShardingInfo records how a farm-backed study was executed.
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

// switchSink forwards log entries to a swappable target, so each campaign
// gets its own streaming collector without re-subscribing.
type switchSink struct {
	target logcat.Sink
}

func (s *switchSink) Consume(e logcat.Entry) {
	if s.target != nil {
		s.target.Consume(e)
	}
}

// RunWearStudy executes the QGJ-Master study on the simulated watch: all
// four campaigns against the Table II fleet. With sharding enabled the
// study runs on the farm engine instead of a single device.
func RunWearStudy(opts Options) (*StudyResult, error) {
	if opts.Sharding.Enabled() {
		return runFarmStudy(apps.WearFleet, opts)
	}
	fleet := apps.BuildWearFleet(opts.Seed)
	dev := wearos.New(wearos.DefaultWatchConfig())
	return runStudy(fleet, dev, opts)
}

// RunPhoneStudy executes the comparison study on the simulated Android
// phone (Table IV).
func RunPhoneStudy(opts Options) (*StudyResult, error) {
	if opts.Sharding.Enabled() {
		return runFarmStudy(apps.PhoneFleet, opts)
	}
	fleet := apps.BuildPhoneFleet(opts.Seed)
	dev := wearos.New(wearos.DefaultPhoneConfig())
	return runStudy(fleet, dev, opts)
}

func runStudy(fleet *apps.Fleet, dev *wearos.OS, opts Options) (*StudyResult, error) {
	if err := fleet.InstallInto(dev); err != nil {
		return nil, fmt.Errorf("install fleet: %w", err)
	}
	targets := fleet.Packages
	if len(opts.Packages) > 0 {
		allow := make(map[string]bool, len(opts.Packages))
		for _, p := range opts.Packages {
			allow[p] = true
		}
		var filtered []*manifest.Package
		for _, p := range targets {
			if allow[p.Name] {
				filtered = append(filtered, p)
			}
		}
		targets = filtered
	}

	sink := &switchSink{}
	dev.Logcat().Subscribe(sink)

	gen := opts.Gen
	gen.Seed = opts.Seed
	inj := &core.Injector{Dev: dev, Cfg: gen}

	campaigns := opts.Campaigns
	if len(campaigns) == 0 {
		campaigns = core.AllCampaigns
	}
	result := &StudyResult{Fleet: fleet, Device: dev, Combined: analysis.AnalyzeEntries(nil)}
	for _, campaign := range campaigns {
		col := analysis.NewCollector()
		sink.target = col
		outcome := CampaignOutcome{Campaign: campaign}
		for _, pkg := range targets {
			run := inj.FuzzApp(campaign, pkg)
			outcome.Sent += run.Sent
			outcome.Summaries = append(outcome.Summaries, core.Summarize(run, dev.BootCount()))
			if opts.Progress != nil {
				opts.Progress(campaign, pkg.Name, result.Sent+outcome.Sent)
			}
		}
		sink.target = nil
		outcome.Report = col.Report()
		result.Campaigns = append(result.Campaigns, outcome)
		result.Combined.Merge(outcome.Report)
		result.Sent += outcome.Sent
	}
	result.LogDropped = dev.Logcat().Dropped()
	return result, nil
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
