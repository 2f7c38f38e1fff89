package service_test

// External-protocol tests for the robustness satellites: workers surviving
// a flaky coordinator, campaign retention/archiving, and the fault-injection
// campaign running end to end through the service.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/service"
)

// flakyHandler wraps h and fails each distinct (method, path) its first
// `failures` times with a 500 before it reaches the coordinator — the shape
// of a proxy hiccup or an overloaded accept queue. Keying by request rather
// than a global counter keeps the injection deterministic: every call
// succeeds within failures+1 attempts no matter how requests interleave.
func flakyHandler(h http.Handler, failures int) (http.Handler, *atomic.Int64) {
	var mu sync.Mutex
	seen := make(map[string]int)
	var injected atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Method + " " + r.URL.Path
		mu.Lock()
		n := seen[key]
		seen[key]++
		mu.Unlock()
		if n < failures {
			injected.Add(1)
			http.Error(w, `{"error":"injected transient failure"}`, http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	}), &injected
}

// TestWorkerSurvivesFlakyCoordinator runs the full distributed protocol
// through a coordinator that 500s the first two hits of every endpoint: the
// client's retry loop must absorb every injected failure and the merged
// export must still be byte-identical to the single-process run.
func TestWorkerSurvivesFlakyCoordinator(t *testing.T) {
	coord := newCoordinator(t, service.Options{LeaseTTL: 2 * time.Second})
	flaky, injected := flakyHandler(service.Handler(coord), 2)
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	// The CLI client talks through the same flaky front door.
	client := service.NewClient(ts.URL, nil).
		WithRetry(service.RetryPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
	info, err := client.Submit(testSpec())
	if err != nil {
		t.Fatalf("submit through flaky coordinator: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan service.WorkerStats, 1)
	go func() {
		s, err := service.RunWorker(ctx, service.WorkerOptions{
			Coordinator: ts.URL,
			Name:        "flaky-w",
			Poll:        20 * time.Millisecond,
		})
		if err != nil {
			t.Errorf("worker: %v", err)
		}
		done <- s
	}()

	waitForState(t, func() (service.CampaignInfo, error) { return client.Campaign(info.ID) }, service.CampaignComplete)
	cancel()
	stats := <-done
	if stats.Executed != 4 {
		t.Errorf("worker executed %d shards, want 4", stats.Executed)
	}
	if injected.Load() == 0 {
		t.Fatal("the flaky handler never injected a failure; the test proves nothing")
	}

	got, err := client.Export(info.ID)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	// Every injected 500 cost exactly one retry, by the worker or by the
	// CLI client, and none was a throttle.
	cliRetries, cliThrottled := client.RetryStats()
	if int64(stats.Retries+cliRetries) != injected.Load() || stats.Throttled != 0 || cliThrottled != 0 {
		t.Errorf("retries: worker %d + client %d, want %d injected; throttled %d/%d, want 0",
			stats.Retries, cliRetries, injected.Load(), stats.Throttled, cliThrottled)
	}
	want, err := serialBaseline()
	if err != nil {
		t.Fatalf("serial baseline: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("export through flaky coordinator differs from single-process run")
	}
	t.Logf("worker survived %d injected failures", injected.Load())
}

// TestRetentionArchivesCompletedCampaigns checks the -retain window: the
// oldest completed campaign's artifacts move to DataDir/done/, its listing
// survives in memory and across a coordinator restart.
func TestRetentionArchivesCompletedCampaigns(t *testing.T) {
	dir := t.TempDir()
	coord := newCoordinator(t, service.Options{DataDir: dir, Retain: 1})

	complete := func(spec service.CampaignSpec) service.CampaignInfo {
		t.Helper()
		info, err := coord.Submit(spec)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		grant, err := coord.Lease("w1")
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if err := coord.Complete(grant.LeaseID, grant.Fingerprint, executeShard(t, grant)); err != nil {
			t.Fatalf("complete: %v", err)
		}
		return waitForState(t, func() (service.CampaignInfo, error) { return coord.Campaign(info.ID) }, service.CampaignComplete)
	}

	first := complete(tinySpec())
	spec2 := tinySpec()
	spec2.Seed = 2
	second, err := coord.Submit(spec2)
	if err != nil {
		t.Fatalf("submit second: %v", err)
	}
	grant, err := coord.Lease("w1")
	if err != nil {
		t.Fatalf("lease second: %v", err)
	}
	if err := coord.Complete(grant.LeaseID, grant.Fingerprint, executeShard(t, grant)); err != nil {
		t.Fatalf("complete second: %v", err)
	}

	// The second campaign's merge evicts the first; archiving runs after
	// finalize, so poll the listing.
	archived := waitForArchived(t, coord, first.ID)
	if archived.Shards != first.Shards || archived.Sent != first.Sent {
		t.Errorf("archived listing lost its tallies: %+v vs %+v", archived, first)
	}

	for _, name := range []string{first.ID + ".spec.json", first.ID + ".ckpt", first.ID + ".info.json"} {
		if _, err := os.Stat(filepath.Join(dir, "done", name)); err != nil {
			t.Errorf("archived artifact missing: %v", err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, first.ID+".spec.json")); !os.IsNotExist(err) {
		t.Errorf("archived sidecar still in the live dir (err=%v)", err)
	}
	if _, err := coord.Export(first.ID); err == nil || !strings.Contains(err.Error(), "unknown campaign") {
		t.Errorf("export of archived campaign: err = %v, want unknown campaign", err)
	}
	// The survivor is untouched.
	if _, err := coord.Export(second.ID); err != nil {
		t.Errorf("export of retained campaign: %v", err)
	}

	// A restarted coordinator still lists the archived ID.
	if err := coord.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	restarted := newCoordinator(t, service.Options{DataDir: dir, Retain: 1})
	if got := waitForArchived(t, restarted, first.ID); got.Created.IsZero() {
		t.Errorf("restarted listing lost the archive timestamp: %+v", got)
	}
}

// waitForArchived polls the campaign listing until id shows state archived.
func waitForArchived(t *testing.T, coord *service.Coordinator, id string) service.CampaignInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		for _, info := range coord.Campaigns() {
			if info.ID == id && info.State == service.CampaignArchived {
				return info
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never reached state archived: %+v", id, coord.Campaigns())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDistributedFaultCampaign runs campaign F through the coordinator and
// networked workers and checks the merged export is byte-identical to the
// in-process run, with the fault-resilience table populated.
func TestDistributedFaultCampaign(t *testing.T) {
	spec := service.CampaignSpec{
		Seed:      1,
		Campaigns: "F",
		Packages:  []string{"com.heartwatch.wear", "com.strava.wear"},
		Quick:     10,
	}
	cfg, err := spec.FarmConfig()
	if err != nil {
		t.Fatalf("farm config: %v", err)
	}
	cfg.Sharding.Workers = 1
	res, err := farm.Run(cfg)
	if err != nil {
		t.Fatalf("serial fault run: %v", err)
	}
	want, err := service.ExportResult(res, spec.Seed)
	if err != nil {
		t.Fatalf("serial export: %v", err)
	}
	if !strings.Contains(string(want), `"faultResilience"`) {
		t.Fatal("serial fault export carries no faultResilience table")
	}

	coord := newCoordinator(t, service.Options{})
	ts := httptest.NewServer(service.Handler(coord))
	defer ts.Close()
	client := service.NewClient(ts.URL, nil)
	info, err := client.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go service.RunWorker(ctx, service.WorkerOptions{
			Coordinator: ts.URL,
			Name:        "fw",
			Poll:        20 * time.Millisecond,
		})
	}
	waitForState(t, func() (service.CampaignInfo, error) { return client.Campaign(info.ID) }, service.CampaignComplete)
	cancel()

	got, err := client.Export(info.ID)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("distributed fault export differs from single-process run:\n--- serial ---\n%s\n--- distributed ---\n%s", want, got)
	}
}
