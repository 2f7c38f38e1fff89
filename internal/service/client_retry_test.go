package service

// Internal tests for the client's retry loop and the coordinator's upload
// backpressure: they reach the sleep/jitter seams and the pending-upload
// counter directly, which the external protocol tests cannot.

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/farm"
)

// stubbedClient returns a client whose backoff sleeps are recorded instead
// of slept and whose jitter is pinned to the top of the range.
func stubbedClient(base string, p RetryPolicy) (*Client, *[]time.Duration) {
	var slept []time.Duration
	c := NewClient(base, nil).WithRetry(p)
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	c.jitter = func() float64 { return 1.0 }
	return c, &slept
}

func TestClientRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("[]"))
	}))
	defer ts.Close()

	c, slept := stubbedClient(ts.URL, RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second})
	if _, err := c.Campaigns(); err != nil {
		t.Fatalf("campaigns after transient errors: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	// Exponential schedule with jitter pinned high: 10ms then 20ms.
	if len(*slept) != 2 || (*slept)[0] != 10*time.Millisecond || (*slept)[1] != 20*time.Millisecond {
		t.Fatalf("backoffs = %v, want [10ms 20ms]", *slept)
	}
	if retries, throttled := c.RetryStats(); retries != 2 || throttled != 0 {
		t.Fatalf("RetryStats = %d retries, %d throttled; want 2, 0", retries, throttled)
	}
}

func TestClientRetriesConnectionRefused(t *testing.T) {
	// A server that has already closed: every dial is refused.
	ts := httptest.NewServer(http.NotFoundHandler())
	base := ts.URL
	ts.Close()

	c, slept := stubbedClient(base, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Second})
	_, err := c.Campaigns()
	if err == nil {
		t.Fatal("expected transport error")
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2 (3 attempts)", len(*slept))
	}
}

func TestClientDoesNotRetryDrain(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusServiceUnavailable, ErrShuttingDown)
	}))
	defer ts.Close()

	c, slept := stubbedClient(ts.URL, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: time.Second})
	_, err := c.Lease("w1")
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("err = %v, want ErrShuttingDown", err)
	}
	if calls.Load() != 1 || len(*slept) != 0 {
		t.Fatalf("drain signal was retried: %d calls, %d sleeps", calls.Load(), len(*slept))
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			writeError(w, http.StatusTooManyRequests, ErrThrottled)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()

	c, slept := stubbedClient(ts.URL, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Second})
	if err := c.Heartbeat("l1"); err != nil {
		t.Fatalf("heartbeat after throttle: %v", err)
	}
	if len(*slept) != 1 || (*slept)[0] != 2*time.Second {
		t.Fatalf("backoffs = %v, want the server's 2s Retry-After hint", *slept)
	}
	if retries, throttled := c.RetryStats(); retries != 1 || throttled != 1 {
		t.Fatalf("RetryStats = %d retries, %d throttled; want 1, 1", retries, throttled)
	}
}

func TestBackoffBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}.withDefaults()
	low := func() float64 { return 0 }
	high := func() float64 { return 1 }
	if got := p.backoff(0, low); got != 50*time.Millisecond {
		t.Errorf("backoff(0, low) = %v, want 50ms", got)
	}
	if got := p.backoff(0, high); got != 100*time.Millisecond {
		t.Errorf("backoff(0, high) = %v, want 100ms", got)
	}
	// Far past the doubling range the delay pins to MaxDelay.
	if got := p.backoff(40, high); got != time.Second {
		t.Errorf("backoff(40, high) = %v, want the 1s cap", got)
	}
}

// TestUploadBackpressure saturates the pending-upload gate and checks the
// whole path: ErrThrottled at the coordinator, 429 + Retry-After on the
// wire, the throttle counter, and acceptance of the retried identical
// upload once the pipeline drains.
func TestUploadBackpressure(t *testing.T) {
	coord, err := NewCoordinator(Options{MaxPendingUploads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown()
	spec := CampaignSpec{Seed: 1, Campaigns: "A", Packages: []string{"com.heartwatch.wear"}, Quick: 10}
	if _, err := coord.Submit(spec); err != nil {
		t.Fatal(err)
	}
	grant, err := coord.Lease("w1")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := grant.Spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := plan.ExecuteShard(grant.Shard)
	if err != nil {
		t.Fatal(err)
	}
	record, err := farm.EncodeShardRecord(grant.Shard, sr)
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(Handler(coord))
	defer ts.Close()
	client, slept := stubbedClient(ts.URL, RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Second})

	// Saturate the gate, then upload: the first attempt must answer 429
	// with the Retry-After hint, and the client-level retry must succeed
	// once the pipeline drains.
	coord.mu.Lock()
	coord.pendingUploads = 1
	coord.mu.Unlock()
	go func() {
		time.Sleep(50 * time.Millisecond)
		coord.mu.Lock()
		coord.pendingUploads = 0
		coord.mu.Unlock()
	}()
	realSleep := *slept
	client.sleep = func(d time.Duration) {
		realSleep = append(realSleep, d)
		time.Sleep(100 * time.Millisecond) // let the drain goroutine run
	}
	if err := client.Complete(grant.LeaseID, grant.Fingerprint, record); err != nil {
		t.Fatalf("upload after throttle: %v", err)
	}
	if len(realSleep) != 1 || realSleep[0] != time.Second {
		t.Fatalf("backoffs = %v, want the 1s Retry-After hint", realSleep)
	}
	if retries, throttled := client.RetryStats(); retries != 1 || throttled != 1 {
		t.Fatalf("RetryStats = %d retries, %d throttled; want 1, 1", retries, throttled)
	}
	snap := coord.Telemetry().Snapshot()
	if snap.Counters["service_uploads_throttled_total"] != 1 {
		t.Fatalf("throttle counter = %d, want 1", snap.Counters["service_uploads_throttled_total"])
	}
	// The throttled attempt must not have touched the lease: the retried
	// upload was accepted under the same lease ID.
	info, err := coord.Campaign(grant.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Done != 1 {
		t.Fatalf("done = %d, want 1", info.Done)
	}
}

// TestResultUploadCap checks the 256 MiB upload cap: a body declared
// larger answers 413 without being read and leaves the lease alone, a
// chunked body under the cap is accepted, and the client maps 413 to
// ErrRecordTooLarge without retrying it.
func TestResultUploadCap(t *testing.T) {
	coord, err := NewCoordinator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown()
	if _, err := coord.Submit(CampaignSpec{Seed: 1, Campaigns: "A", Packages: []string{"com.heartwatch.wear"}, Quick: 10}); err != nil {
		t.Fatal(err)
	}
	grant, err := coord.Lease("w1")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := grant.Spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := plan.ExecuteShard(grant.Shard)
	if err != nil {
		t.Fatal(err)
	}
	record, err := farm.EncodeShardRecord(grant.Shard, sr)
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(coord)
	upload := func(body io.Reader, length int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/leases/"+grant.LeaseID+"/result", body)
		req.ContentLength = length
		req.Header.Set(fingerprintHeader, grant.Fingerprint)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	// The declared length alone condemns the body: a reader that fails on
	// first use proves it is never read.
	if rec := upload(iotest.ErrReader(errors.New("body was read")), maxResultBytes+1); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: %d %s, want 413", rec.Code, rec.Body)
	}
	// The lease survived: the real record, sent chunked (unknown length),
	// completes it.
	if rec := upload(bytes.NewReader(record), -1); rec.Code != http.StatusNoContent {
		t.Fatalf("chunked upload: %d %s, want 204", rec.Code, rec.Body)
	}

	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, ErrRecordTooLarge)
	}))
	defer ts.Close()
	c, slept := stubbedClient(ts.URL, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: time.Second})
	if err := c.Complete("l1", grant.Fingerprint, record); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("Complete = %v, want ErrRecordTooLarge", err)
	}
	if calls.Load() != 1 || len(*slept) != 0 {
		t.Fatalf("413 was retried: %d calls, %d sleeps", calls.Load(), len(*slept))
	}
}
