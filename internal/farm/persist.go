// Persistent-mode shard execution, the farm's one production boot path.
// AFL-persistent-mode style, each worker keeps ONE hot device and resets it
// in place between the shards it leases (wearos.OS.ResetTo), and keeps its
// instantiated fleets and rewinds their behaviour draw streams instead of
// resampling (apps.FleetTemplate.Reset). When there is no hot device to
// reuse, the unit gets a fresh clone of the boot template (snapshot.go); a
// clone per shard is simply an executor used once.
//
// Correctness never depends on reuse. Every reset is validated against the
// template's captured state hash; a device that crashed its way into a
// reboot, aged past its template, or tripped the hash check in any way is
// retired and the unit transparently falls back to a fresh clone. The
// equivalence suites pin the merged study byte-identical to the
// clone-per-shard and fresh-boot reference strategies (export_test.go).
package farm

import (
	"time"

	"repro/internal/apps"
	"repro/internal/wearos"
)

// unitExecutor carries one worker's reusable execution state across the
// campaign units it runs: the hot device, the template it was cut from, and
// the per-package fleets already instantiated. Not safe for concurrent use —
// each worker goroutine owns exactly one.
type unitExecutor struct {
	dev  *wearos.OS
	snap *wearos.Snapshot // template dev was cloned from; nil iff dev is nil
	tmpl *apps.FleetTemplate
	// fleets caches instantiated fleets by package name. The shard plan is
	// campaign-major, so every package comes around once per campaign; the
	// cache turns the 2nd..Nth visits into a draw-stream rewind.
	fleets map[string]*apps.Fleet
}

// newUnitExecutor returns an empty executor; the first boot populates it.
func newUnitExecutor() *unitExecutor {
	return &unitExecutor{fleets: make(map[string]*apps.Fleet)}
}

// boot produces the per-shard (fleet, device) pair: the executor's hot
// device reset to the boot template, or a fresh clone of it, with the
// shard's package installed and its handlers registered, and nothing else.
// The fleet is the executor's cached instance rewound, or a new
// instantiation of the fleet template. met records the template-cache
// outcome (a hit requires both the fleet template and the device snapshot
// to be cached) and the persist outcome; source names the boot path for the
// shard status board.
func (e *unitExecutor) boot(cfg Config, kind apps.FleetKind, pkgName string, met farmMetrics) (*apps.Fleet, *wearos.OS, string, error) {
	if cfg.testBoot != nil {
		return cfg.testBoot(kind, cfg.Seed, pkgName, met)
	}

	tmpl, fleetHit, err := bootCache.fleetTemplate(kind, cfg.Seed)
	if err != nil {
		return nil, nil, "", err
	}
	snap, devHit, err := bootCache.deviceSnapshot(deviceConfig(kind))
	if err != nil {
		return nil, nil, "", err
	}
	if fleetHit && devHit {
		met.snapHits.Inc()
	} else {
		met.snapMisses.Inc()
	}

	fleet := e.fleet(tmpl, pkgName)
	if fleet == nil {
		if fleet, err = tmpl.Instantiate(pkgName); err != nil {
			return nil, nil, "", err
		}
		e.tmpl = tmpl
		e.fleets[pkgName] = fleet
	}

	dev, source := e.device(snap, met)
	if _, err := fleet.InstallPackageInto(dev, pkgName); err != nil {
		// The hot device now has a half-installed package on it; retire it
		// so the next unit starts from a clean clone.
		e.dev, e.snap = nil, nil
		return nil, nil, "", err
	}
	e.dev, e.snap = dev, snap
	return fleet, dev, source, nil
}

// fleet returns the cached fleet for pkg rewound to its freshly
// instantiated state, or nil when the cache cannot serve it (template
// changed, or the rewind failed its sanity checks).
func (e *unitExecutor) fleet(tmpl *apps.FleetTemplate, pkg string) *apps.Fleet {
	if e.tmpl != tmpl {
		// Different template (seed or kind changed mid-process): every cached
		// fleet is stale.
		clear(e.fleets)
		return nil
	}
	f := e.fleets[pkg]
	if f == nil {
		return nil
	}
	if !tmpl.Reset(f, pkg) {
		delete(e.fleets, pkg)
		return nil
	}
	return f
}

// device returns the executor's hot device reset to snap, or a fresh clone
// when there is no reusable device. The persist counters record the
// outcome: a reuse, or a retirement (reset attempted and failed) followed
// by a fallback clone. A cold start (no device yet, or the template
// changed) counts as a fallback but not a retirement.
func (e *unitExecutor) device(snap *wearos.Snapshot, met farmMetrics) (*wearos.OS, string) {
	if e.dev != nil && e.snap == snap {
		start := time.Now()
		ok := e.dev.ResetTo(snap)
		met.resetSeconds.Observe(time.Since(start).Seconds())
		if ok {
			met.persistReuses.Inc()
			return e.dev, BootReuse
		}
		met.persistRetires.Inc()
	}
	met.persistFallbacks.Inc()
	start := time.Now()
	dev := snap.Clone()
	met.cloneSeconds.Observe(time.Since(start).Seconds())
	return dev, BootClone
}
