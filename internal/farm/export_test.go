package farm

import (
	"repro/internal/apps"
	"repro/internal/wearos"
)

// The reference boot strategies. Production shards boot through
// unitExecutor.boot: the worker's hot device reset in place, with a clone
// of the boot template as the fallback. The equivalence suites and the
// Farm8 benchmark triple compare it against the two strategies below,
// which every faster boot must match byte for byte.

// BootFresh names a shard device booted from scratch (FreshBoot runs).
const BootFresh = "fresh-boot"

// FreshBoot returns cfg with every shard and triage oracle device booted
// from scratch and every fleet built from the study seed: no template, no
// clone, no reuse.
func FreshBoot(cfg Config) Config {
	cfg.testBoot = func(kind apps.FleetKind, seed uint64, pkg string, _ farmMetrics) (*apps.Fleet, *wearos.OS, string, error) {
		fleet, err := apps.BuildFleetPackage(kind, seed, pkg)
		if err != nil {
			return nil, nil, "", err
		}
		dev := wearos.New(deviceConfig(kind))
		if _, err := fleet.InstallPackageInto(dev, pkg); err != nil {
			return nil, nil, "", err
		}
		return fleet, dev, BootFresh, nil
	}
	return cfg
}

// ClonePerShard returns cfg with every shard and triage oracle device
// booted by an executor used once: a fresh clone of the boot template and
// a freshly instantiated fleet, never a reset.
func ClonePerShard(cfg Config) Config {
	cfg.testBoot = func(kind apps.FleetKind, seed uint64, pkg string, met farmMetrics) (*apps.Fleet, *wearos.OS, string, error) {
		return newUnitExecutor().boot(Config{Seed: seed}, kind, pkg, met)
	}
	return cfg
}
