// Exported planning/execution/merge surface for distributed callers.
//
// farm.Run owns the whole lifecycle in one process: plan, execute, journal,
// merge. The coordinator/worker service (internal/service) splits that
// lifecycle across machines — the coordinator plans and merges, workers
// execute shards — so the phases are exposed here as first-class steps:
//
//	NewPlan        the canonical shard plan + fingerprint for a Config
//	ExecuteShard   one work unit, exactly as a farm worker goroutine runs it
//	Merge          canonical-order merge + triage over complete results
//	OpenJournal    the fsynced JSONL checkpoint as a durable work-queue log
//	Encode/DecodeShardRecord   the journal's wire form, reused for uploads
//
// The determinism contract carries over unchanged: ExecuteShard derives the
// shard seed from the plan seed via rng.Split on the shard key, so a shard
// executed on a remote worker returns byte-identical merge inputs to one
// executed in-process, and Merge over any assignment of shards to workers
// (including leases reclaimed from killed workers and re-executed) equals
// the single-process run.
package farm

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/manifest"
)

// Plan is the canonical shard plan for a Config: the work-queue contents a
// coordinator serves and the execution recipe a worker follows. Plans are
// immutable after NewPlan; the same Config always yields the same plan and
// the same Fingerprint.
type Plan struct {
	cfg   Config
	kind  apps.FleetKind
	fleet *apps.Fleet
	// campaigns is the normalized campaign list (Config.Campaigns or all
	// four), shards the canonical campaign-major shard order.
	campaigns []core.Campaign
	shards    []ShardKey
	// fingerprint covers everything that shapes shard outcomes (seed,
	// fleet, plan, generator scaling) — the same value the checkpoint
	// journal header carries, embedded in every service lease so a worker
	// can never execute a shard from the wrong run.
	fingerprint uint64
	// comps counts fuzzable components per package, the exact per-shard
	// intent-cost input the LPT scheduler uses.
	comps map[string]int
}

// NewPlan normalizes cfg and builds the canonical shard plan. It performs
// the same planning steps as Run: fleet construction, target selection,
// campaign-major shard enumeration, and fingerprinting.
func NewPlan(cfg Config) (*Plan, error) {
	campaigns := cfg.Campaigns
	if len(campaigns) == 0 {
		campaigns = core.AllCampaigns
	}
	kind := cfg.Fleet
	if kind == 0 {
		kind = apps.WearFleet
	}
	fleet, err := buildFleet(kind, cfg.Seed)
	if err != nil {
		return nil, err
	}
	targets, err := selectTargets(fleet, cfg.Packages)
	if err != nil {
		return nil, err
	}
	var shards []ShardKey
	for _, c := range campaigns {
		for _, p := range targets {
			shards = append(shards, ShardKey{Campaign: c, Package: p.Name})
		}
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("farm: empty shard plan (no packages matched)")
	}
	comps := make(map[string]int, len(targets))
	for _, p := range targets {
		for _, c := range p.Components {
			if c.Type == manifest.Activity || c.Type == manifest.Service {
				comps[p.Name]++
			}
		}
	}
	return &Plan{
		cfg:         cfg,
		kind:        kind,
		fleet:       fleet,
		campaigns:   campaigns,
		shards:      shards,
		fingerprint: fingerprint(cfg.Seed, kind.String(), shards, cfg.Gen),
		comps:       comps,
	}, nil
}

// Shards returns the canonical shard order. Callers must not mutate it.
func (p *Plan) Shards() []ShardKey { return p.shards }

// Fingerprint identifies the run this plan describes; it equals the
// checkpoint journal's header fingerprint.
func (p *Plan) Fingerprint() uint64 { return p.fingerprint }

// Fleet returns the canonical fleet instance (metadata for the merge).
func (p *Plan) Fleet() *apps.Fleet { return p.fleet }

// FleetKind returns the normalized population kind.
func (p *Plan) FleetKind() apps.FleetKind { return p.kind }

// Campaigns returns the normalized campaign list.
func (p *Plan) Campaigns() []core.Campaign { return p.campaigns }

// EstimatedIntents returns shard idx's exact intent volume — the LPT
// scheduling weight. A coordinator granting leases largest-first gets the
// same tail-latency bound the in-process farm gets from scheduleLPT.
func (p *Plan) EstimatedIntents(idx int) int {
	key := p.shards[idx]
	return key.Campaign.CountPerComponent(p.cfg.Gen) * p.comps[key.Package]
}

// ExecuteShard runs one work unit in full isolation, exactly as a farm
// worker goroutine would: a device cloned from the boot template, private
// fleet behaviour state, per-shard generator split, triage collection and
// flight recording per the plan's Config. Safe for concurrent use — shards
// share nothing but the immutable boot templates. Callers executing many
// shards sequentially should prefer an Executor, which additionally reuses
// a hot device across the calls.
func (p *Plan) ExecuteShard(idx int) (*ShardResult, error) {
	if idx < 0 || idx >= len(p.shards) {
		return nil, fmt.Errorf("farm: shard index %d outside plan of %d", idx, len(p.shards))
	}
	return runShard(p.cfg, p.kind, p.shards[idx], newFarmMetrics(p.cfg.Telemetry), newUnitExecutor())
}

// Executor is a persistent-mode shard runner bound to one plan: the same
// hot-device-reset reuse a farm worker goroutine gets, exposed to
// distributed callers that execute leased shards one at a time in a loop
// (the service worker). Not safe for concurrent use — one Executor per
// executing goroutine, like one device per worker.
type Executor struct {
	p  *Plan
	ex *unitExecutor
}

// NewExecutor returns a fresh persistent executor for this plan.
func (p *Plan) NewExecutor() *Executor {
	return &Executor{p: p, ex: newUnitExecutor()}
}

// ExecuteShard runs one work unit like Plan.ExecuteShard, reusing the
// executor's hot device when its reset validates.
func (e *Executor) ExecuteShard(idx int) (*ShardResult, error) {
	p := e.p
	if idx < 0 || idx >= len(p.shards) {
		return nil, fmt.Errorf("farm: shard index %d outside plan of %d", idx, len(p.shards))
	}
	return runShard(p.cfg, p.kind, p.shards[idx], newFarmMetrics(p.cfg.Telemetry), e.ex)
}

// Merge folds one complete result set, in canonical plan order, into the
// merged Result and runs triage (unless the plan's Config disables it) —
// the exact post-barrier tail of Run. Every slot must hold the result for
// the same-indexed shard; order of arrival is irrelevant by construction.
func (p *Plan) Merge(results []*ShardResult) (*Result, error) {
	if len(results) != len(p.shards) {
		return nil, fmt.Errorf("farm: merge needs %d shard results, got %d", len(p.shards), len(results))
	}
	for i, sr := range results {
		if sr == nil {
			return nil, fmt.Errorf("farm: merge: shard %d (%s) has no result", i, p.shards[i])
		}
		if sr.Key != p.shards[i] {
			return nil, fmt.Errorf("farm: merge: slot %d holds %s, want %s", i, sr.Key, p.shards[i])
		}
	}
	met := newFarmMetrics(p.cfg.Telemetry)
	res := merge(p.fleet, p.campaigns, p.shards, results, met)
	if !p.cfg.DisableTriage {
		res.Triage = triageCrashes(p.cfg, p.kind, p.fleet, results)
		met.crashesRaw.Set(float64(res.Triage.Crashes))
		met.crashBuckets.Set(float64(res.Triage.Unique()))
	}
	return res, nil
}

// ShardJournal is the plan-scoped durable work-queue log: the same fsynced
// JSONL checkpoint file farm.Run writes, opened against a Plan so a
// coordinator can persist completed shards one record at a time and recover
// the done-set after a restart.
type ShardJournal struct {
	j *journal
}

// OpenJournal creates (or, with resume, reloads) the checkpoint journal at
// path for this plan. On resume it returns the restored results indexed by
// shard — the durable done-set; every nil slot is pending work. A journal
// written by a different plan (fingerprint mismatch) is refused, the same
// guarantee -resume gives the CLI.
func (p *Plan) OpenJournal(path string, resume bool) (*ShardJournal, []*ShardResult, int, error) {
	cfg := p.cfg
	cfg.Sharding.Checkpoint = path
	cfg.Sharding.Resume = resume
	results := make([]*ShardResult, len(p.shards))
	jnl, resumed, err := prepareCheckpoint(cfg, p.fingerprint, p.kind, p.shards, results)
	if err != nil {
		return nil, nil, 0, err
	}
	return &ShardJournal{j: jnl}, results, resumed, nil
}

// Append durably records one completed shard (fsynced before returning).
func (sj *ShardJournal) Append(idx int, sr *ShardResult) error {
	rec, err := EncodeShardRecord(idx, sr)
	if err != nil {
		return err
	}
	return sj.j.appendRaw(rec)
}

// AppendEncoded durably records an already-encoded shard record (the bytes
// a worker uploaded), avoiding a decode/re-encode round trip on the
// coordinator's hot path. The caller must have validated the record.
func (sj *ShardJournal) AppendEncoded(line []byte) error {
	return sj.j.appendRaw(line)
}

// Close flushes and releases the journal file handle.
func (sj *ShardJournal) Close() error {
	if sj == nil {
		return nil
	}
	return sj.j.Close()
}
