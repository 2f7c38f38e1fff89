package analysis

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/intent"
	"repro/internal/logcat"
	"repro/internal/manifest"
	"repro/internal/wearos"
)

// TestGateDenialsMatchParsedDump streams every gate-denial reason the
// dispatcher logs — protected action, not found, not exported, needs
// permission — through the live collector, which counts the structured
// denial entries without reading their text, and checks the report equals
// the one built from the Dump() text parsed back line by line. The
// protected-action cases include targets the registry has never seen
// (not installed, and no component at all), which take the uncached path.
func TestGateDenialsMatchParsedDump(t *testing.T) {
	dev := wearos.New(wearos.DefaultWatchConfig())
	col := NewCollector()
	dev.Logcat().Subscribe(col)
	pkg := &manifest.Package{
		Name:     "com.a.app",
		Category: manifest.NotHealthFitness,
		Origin:   manifest.ThirdParty,
		Components: []*manifest.Component{
			{Name: cn("com.a.app", "Main"), Type: manifest.Activity, Exported: true},
			{Name: cn("com.a.app", "Hidden"), Type: manifest.Activity},
			{Name: cn("com.a.app", "Guarded"), Type: manifest.Service, Exported: true,
				Permission: "android.permission.BODY_SENSORS"},
		},
	}
	if err := dev.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}

	const protected = "android.intent.action.BATTERY_LOW"
	ghost := cn("com.ghost.app", "Gone")
	cases := []struct {
		name   string
		target intent.ComponentName
		kind   manifest.ComponentType
		action string
		want   wearos.DeliveryResult
	}{
		{"protected", cn("com.a.app", "Main"), manifest.Activity, protected, wearos.BlockedSecurity},
		{"protected-not-installed", ghost, manifest.Activity, protected, wearos.BlockedSecurity},
		{"protected-implicit", intent.ComponentName{}, manifest.Activity, protected, wearos.BlockedSecurity},
		{"not-found", ghost, manifest.Service, "android.intent.action.VIEW", wearos.BlockedNotFound},
		{"not-found-wrong-kind", cn("com.a.app", "Main"), manifest.Service, "", wearos.BlockedNotFound},
		{"not-exported", cn("com.a.app", "Hidden"), manifest.Activity, "android.intent.action.VIEW", wearos.BlockedSecurity},
		{"needs-permission", cn("com.a.app", "Guarded"), manifest.Service, "", wearos.BlockedSecurity},
	}
	// Two senders, twice each: the second send of a pair replays the gate
	// cache, and the second sender forces a re-render for its own UID.
	uids := []int{wearos.UIDAppBase + 100, wearos.UIDAppBase + 200}
	for _, uid := range uids {
		for rep := 0; rep < 2; rep++ {
			for _, tc := range cases {
				in := &intent.Intent{Action: tc.action, Component: tc.target, SenderUID: uid}
				var got wearos.DeliveryResult
				if tc.kind == manifest.Service {
					got = dev.StartService(in)
				} else {
					got = dev.StartActivity(in)
				}
				if got != tc.want {
					t.Fatalf("%s (uid %d): result %v, want %v", tc.name, uid, got, tc.want)
				}
			}
		}
	}

	// The subscriber joined after boot; the snapshot replays the whole
	// ring through the same structural path, boot lines included.
	live := AnalyzeEntries(dev.Logcat().Snapshot())
	if !reflect.DeepEqual(col.Report().Components, live.Components) {
		t.Fatalf("streamed and replayed reports diverge:\nstreamed %v\nreplayed %v",
			reportSummary(col.Report()), reportSummary(live))
	}
	var parsed []logcat.Entry
	for _, line := range strings.Split(strings.TrimSuffix(dev.Logcat().Dump(), "\n"), "\n") {
		e, ok := logcat.ParseLine(line, 0)
		if !ok {
			t.Fatalf("dump line does not parse: %q", line)
		}
		parsed = append(parsed, e)
	}
	fromDump := AnalyzeEntries(parsed)

	// The gate caches render per sender: each UID's denials name that UID.
	dump := dev.Logcat().Dump()
	for _, uid := range uids {
		for _, want := range []string{
			"not allowed to send broadcast " + protected + " from pid=?, uid=" + strconv.Itoa(uid) + " targeting com.a.app/.Main",
			"com.a.app/.Hidden not exported from uid " + strconv.Itoa(uid),
		} {
			if strings.Count(dump, want) != 2 {
				t.Fatalf("dump has %d lines with %q, want 2", strings.Count(dump, want), want)
			}
		}
	}

	if live.Entries != fromDump.Entries || live.SecurityEvents != fromDump.SecurityEvents {
		t.Fatalf("live entries=%d security=%d, parsed entries=%d security=%d",
			live.Entries, live.SecurityEvents, fromDump.Entries, fromDump.SecurityEvents)
	}
	if !reflect.DeepEqual(live.Components, fromDump.Components) {
		t.Fatalf("component reports diverge:\nlive   %v\nparsed %v", reportSummary(live), reportSummary(fromDump))
	}
	// Four chargeable SecurityException cases (protected to Main and to the
	// ghost, not exported, needs permission), four sends each. The implicit
	// protected intent names no component, so it is charged to none.
	if want := 4 * 4; live.SecurityEvents != want {
		t.Fatalf("SecurityEvents = %d, want %d", live.SecurityEvents, want)
	}
	for _, c := range []intent.ComponentName{cn("com.a.app", "Main"), ghost, cn("com.a.app", "Hidden"), cn("com.a.app", "Guarded")} {
		if cr := live.Components[c]; cr == nil || cr.Security != 4 {
			t.Fatalf("%s: security report %+v, want 4 denials", c.FlattenToString(), cr)
		}
	}
}

// reportSummary renders the per-component security and delivery counts for
// a failure message.
func reportSummary(r *Report) map[string][2]int {
	out := make(map[string][2]int, len(r.Components))
	for c, cr := range r.Components {
		out[c.FlattenToString()] = [2]int{cr.Security, cr.Deliveries}
	}
	return out
}
