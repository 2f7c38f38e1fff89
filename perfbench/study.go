package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/farm"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/wearos"
)

// workers is the closed-loop client count of every workload: two shard
// executors in one process, matching the 2-CPU hosts the baseline was
// recorded on.
const workers = 2

// workload is one named study the benchmark runs. The spec is the whole
// input; the seed is filled in from --seed.
type workload struct {
	spec       service.CampaignSpec
	viaService bool
}

var workloads = map[string]workload{
	// The paper's headline run: 46 wear apps, FIC A-D at full scale
	// (1,845,888 intents in 184 shards), in-process farm.Run.
	"wear_study": {spec: service.CampaignSpec{Fleet: "wear", Campaigns: "ABCD"}},
	// The same fleet and campaigns through the coordinator/worker service
	// over loopback HTTP with a durable journal, at quick-4 scale (224,352
	// intents in 184 shards): its time goes to the durable path, record
	// encode/decode, fsync and lease round trips. At paper scale a run
	// fits only two or three studies and the journal volume differs by up
	// to 2x between seeds, so its throughput spread 20-37% between runs.
	"wear_service": {spec: service.CampaignSpec{Fleet: "wear", Campaigns: "ABCD", Quick: 4}, viaService: true},
	// The 63-app phone fleet, FIC A-D plus F at quick-4 scale: small
	// shards and a failure pipeline (triage, minimization, fault verdicts,
	// export) that is a large share of the time.
	"phone_triage": {spec: service.CampaignSpec{Fleet: "phone", Campaigns: "ABCDF", Quick: 4}},
}

// bench is one workload at one study seed. Studies of a run at other
// seeds share its tally.
type bench struct {
	*tally
	name    string
	w       workload
	spec    service.CampaignSpec
	cfg     farm.Config
	seed    uint64
	scratch string

	plan *farm.Plan
	// want is Σ Plan.EstimatedIntents: what every study must report as Sent.
	want int
}

// tally counts a run's operations and keeps the reasons it is not correct.
type tally struct {
	attempted, failed int
	problems          []string
}

// fail records a failed operation and the reason the run is not correct.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

func newBench(name string, seed uint64, scratch string) (*bench, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	b := &bench{tally: &tally{}, name: name, w: w, scratch: scratch}
	return b.withSeed(seed)
}

// withSeed returns the workload at another study seed, sharing b's tally.
func (b *bench) withSeed(seed uint64) (*bench, error) {
	nb := *b
	nb.seed = seed
	nb.spec = b.w.spec
	nb.spec.Seed = seed
	cfg, err := nb.spec.FarmConfig()
	if err != nil {
		return nil, err
	}
	cfg.Sharding.Workers = workers
	nb.cfg = cfg
	if nb.plan, err = farm.NewPlan(cfg); err != nil {
		return nil, err
	}
	nb.want = 0
	for i := range nb.plan.Shards() {
		nb.want += nb.plan.EstimatedIntents(i)
	}
	return &nb, nil
}

// panelSeed is the study seed of the j-th study of a run with --seed seed:
// the seed itself first, then independent splits of it.
func panelSeed(seed uint64, j int) uint64 {
	if j == 0 {
		return seed
	}
	return rng.New(seed).Split(fmt.Sprintf("perfbench-panel-%d", j)).Uint64()
}

// setup is one timed pass over everything before the first shard runs.
type setup struct {
	total, plan time.Duration
}

// setupOnce plans the study (fleet build and fingerprint), boots the
// templates shards are cut from, and on the service workload starts a
// coordinator and submits the spec. The farm caches its templates for the
// life of the process, so the benchmark times the same public calls the
// cache makes on a miss.
func (b *bench) setupOnce() (setup, error) {
	start := time.Now()
	plan, err := farm.NewPlan(b.cfg)
	if err != nil {
		return setup{}, err
	}
	planDur := time.Since(start)
	if _, err := apps.NewFleetTemplate(plan.FleetKind(), b.seed); err != nil {
		return setup{}, err
	}
	if _, err := wearos.New(deviceConfig(plan.FleetKind())).Snapshot(); err != nil {
		return setup{}, err
	}
	if b.w.viaService {
		dir, err := os.MkdirTemp(b.scratch, "setup-")
		if err != nil {
			return setup{}, err
		}
		s, err := startService(dir, b.spec, nil)
		if err != nil {
			return setup{}, err
		}
		total := time.Since(start)
		if err := s.close(); err != nil {
			return setup{}, err
		}
		return setup{total: total, plan: planDur}, nil
	}
	return setup{total: time.Since(start), plan: planDur}, nil
}

// deviceConfig mirrors the farm's shard device configuration: the fleet's
// default device with device-level telemetry off.
func deviceConfig(kind apps.FleetKind) wearos.Config {
	cfg := wearos.DefaultWatchConfig()
	if kind == apps.PhoneFleet || kind == apps.LegacyPhoneFleet {
		cfg = wearos.DefaultPhoneConfig()
	}
	cfg.DisableTelemetry = true
	return cfg
}

// studyOut is one measured study.
type studyOut struct {
	wall, cpu time.Duration
	peakRSSMB float64
	durable   int64
	res       *farm.Result
	export    []byte
	sum       [32]byte
	// shards and waits are per shard, in seconds (traced studies only).
	shardSecs, waitSecs []float64
	// results are the per-shard merge inputs (traced in-process studies).
	results []*farm.ShardResult
	// svc is the service harness a service study ran on, still open so
	// the traced run can read its journal and board; the caller closes it.
	svc *svcHarness
}

// measure brackets fn with the study clocks: wall time, process CPU time
// and peak RSS, after a collection so that the previous study's garbage is
// neither collected nor counted inside this one.
func measure(fn func() error) (wall, cpu time.Duration, peakMB float64, err error) {
	quiesce()
	cpu0, t0 := cpuTime(), time.Now()
	err = fn()
	wall, cpu = time.Since(t0), cpuTime()-cpu0
	return wall, cpu, peakRSSMB(), err
}

// inProcess runs the study through farm.Run, renders the export and makes
// it durable. With a tracer it drives the same phases through the public
// plan API instead (executors, Merge, ExportResult) so that each call gets
// a span; the export check proves both paths produce the same bytes.
func (b *bench) inProcess(tr *tracer, reg *telemetry.Registry) (studyOut, error) {
	var out studyOut
	path := filepath.Join(b.scratch, "export.json")
	var err error
	out.wall, out.cpu, out.peakRSSMB, err = measure(func() error {
		if tr != nil {
			return b.tracedPhases(tr, reg, &out, path)
		}
		cfg := b.cfg
		cfg.Telemetry = reg
		res, err := farm.Run(cfg)
		if err != nil {
			return err
		}
		out.res = res
		if out.export, err = service.ExportResult(res, b.seed); err != nil {
			return err
		}
		return writeDurable(path, out.export)
	})
	if err != nil {
		return out, err
	}
	out.durable = int64(len(out.export))
	out.sum = sha256.Sum256(out.export)
	return out, os.Remove(path)
}

// tracedPhases is farm.Run spelled out through its public phases: LPT
// dispatch of every shard to two persistent executors, the canonical merge
// with triage, and the export.
func (b *bench) tracedPhases(tr *tracer, reg *telemetry.Registry, out *studyOut, path string) error {
	cfg := b.cfg
	cfg.Telemetry = reg
	plan, err := farm.NewPlan(cfg)
	if err != nil {
		return err
	}
	root := tr.begin(0, "study", "study", "study")
	defer tr.end(root)
	n := len(plan.Shards())
	out.results = make([]*farm.ShardResult, n)
	out.shardSecs = make([]float64, n)
	out.waitSecs = make([]float64, n)
	errs := make([]error, n)
	feed := make(chan int)
	var wg sync.WaitGroup
	execStart := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := plan.NewExecutor()
			for idx := range feed {
				start := time.Now()
				out.waitSecs[idx] = start.Sub(execStart).Seconds()
				id := tr.begin(root, plan.Shards()[idx].String(), "farm.shard", "farm")
				out.results[idx], errs[idx] = ex.ExecuteShard(idx)
				tr.end(id)
				out.shardSecs[idx] = time.Since(start).Seconds()
			}
		}()
	}
	for _, idx := range lptOrder(plan) {
		feed <- idx
	}
	close(feed)
	wg.Wait()
	for idx, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %s: %w", plan.Shards()[idx], err)
		}
	}
	id := tr.begin(root, "study", "farm.Merge", "triage")
	out.res, err = plan.Merge(out.results)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(root, "study", "service.ExportResult", "report")
	out.export, err = service.ExportResult(out.res, b.seed)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(root, "study", "export.write", "report")
	defer tr.end(id)
	return writeDurable(path, out.export)
}

// lptOrder is the farm's dispatch order: largest shard first, plan order
// among equals.
func lptOrder(plan *farm.Plan) []int {
	order := make([]int, len(plan.Shards()))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return plan.EstimatedIntents(order[i]) > plan.EstimatedIntents(order[j])
	})
	return order
}

// viaService runs the study on a coordinator with a durable data dir,
// served over loopback HTTP and drained by two service.RunWorker loops;
// the export is fetched over HTTP and made durable. Set-up (coordinator
// start and submit) happens before the clocks start. The harness is
// returned open.
func (b *bench) viaService(tr *tracer) (studyOut, error) {
	var out studyOut
	dir, err := os.MkdirTemp(b.scratch, "svc-")
	if err != nil {
		return out, err
	}
	root := 0
	s, err := startService(dir, b.spec, tr)
	if err != nil {
		return out, err
	}
	out.svc = s
	out.wall, out.cpu, out.peakRSSMB, err = measure(func() error {
		root = tr.begin(0, "study", "study", "study")
		defer tr.end(root)
		s.mw.setRoot(root)
		stats := make([]service.WorkerStats, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				stats[i], errs[i] = service.RunWorker(context.Background(), service.WorkerOptions{
					Coordinator:  s.url,
					Name:         fmt.Sprintf("w%d", i),
					Poll:         20 * time.Millisecond,
					ExitWhenIdle: true,
				})
			}(i)
		}
		wg.Wait()
		s.mw.mu.Lock()
		for i := range stats {
			s.mw.lost += stats[i].Lost
		}
		s.mw.mu.Unlock()
		for i := range errs {
			if errs[i] != nil {
				return fmt.Errorf("worker %d: %w", i, errs[i])
			}
		}
		id := tr.begin(root, "study", "coordinator.finalize", "triage")
		res, err := s.coord.Result(s.id)
		tr.end(id)
		if err != nil {
			return err
		}
		out.res = res
		if out.export, err = s.client.Export(s.id); err != nil {
			return err
		}
		id = tr.begin(root, "study", "export.write", "report")
		defer tr.end(id)
		return writeDurable(filepath.Join(dir, "export.json"), out.export)
	})
	if err != nil {
		return out, err
	}
	out.sum = sha256.Sum256(out.export)
	out.durable, err = dirBytes(dir)
	return out, err
}

// svcHarness is a coordinator served over loopback HTTP with one
// submitted campaign.
type svcHarness struct {
	dir    string
	coord  *service.Coordinator
	srv    *httptest.Server
	url    string
	client *service.Client
	mw     *middleware
	id     string
}

// startService starts a coordinator (durable when dir is set), serves it
// through the counting/timing middleware and submits spec over HTTP.
func startService(dir string, spec service.CampaignSpec, tr *tracer) (*svcHarness, error) {
	opts := service.Options{}
	if dir != "" {
		opts.DataDir = filepath.Join(dir, "data")
	}
	c, err := service.NewCoordinator(opts)
	if err != nil {
		return nil, err
	}
	mw := newMiddleware(service.Handler(c), tr)
	srv := httptest.NewServer(mw)
	s := &svcHarness{dir: dir, coord: c, srv: srv, url: srv.URL, client: service.NewClient(srv.URL, nil), mw: mw}
	info, err := s.client.Submit(spec)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("submit: %w", err)
	}
	s.id = info.ID
	return s, nil
}

// close stops the server and the coordinator and removes the data dir.
func (s *svcHarness) close() error {
	s.srv.Close()
	err := s.coord.Shutdown()
	if s.dir != "" {
		if rmErr := os.RemoveAll(s.dir); err == nil {
			err = rmErr
		}
	}
	return err
}

// journalLines returns the campaign journal's shard records (the header
// line dropped), exactly as the coordinator made them durable.
func (s *svcHarness) journalLines() ([][]byte, error) {
	paths, err := filepath.Glob(filepath.Join(s.dir, "data", "*.ckpt"))
	if err != nil || len(paths) != 1 {
		return nil, fmt.Errorf("journal: want one *.ckpt in the data dir, got %v (%v)", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	out := make([][]byte, 0, len(lines))
	for _, l := range lines[1:] {
		out = append(out, []byte(l))
	}
	return out, nil
}

// middleware sits in front of service.Handler. It always counts requests
// and failed outcomes; with a tracer it also times each request
// server-side and records worker shard spans (from the lease response to
// the first result upload of the same lease).
type middleware struct {
	next http.Handler
	tr   *tracer

	mu        sync.Mutex
	root      int
	requests  int
	failures  int
	throttled int
	rejected  int
	lost      int
	uploadB   int64
	leaseMs   []float64
	complMs   []float64
	// granted maps a lease ID to its shard key and the time its grant
	// response was written.
	granted map[string]grant
}

type grant struct {
	key string
	at  time.Time
}

func newMiddleware(next http.Handler, tr *tracer) *middleware {
	return &middleware{next: next, tr: tr, granted: make(map[string]grant)}
}

func (m *middleware) setRoot(root int) {
	m.mu.Lock()
	m.root = root
	m.mu.Unlock()
}

// statusWriter captures the status and, for lease grants, the body.
type statusWriter struct {
	http.ResponseWriter
	status int
	body   []byte
	keep   bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.keep {
		w.body = append(w.body, p...)
	}
	return w.ResponseWriter.Write(p)
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK, keep: route == "lease" && m.tr != nil}
	start := time.Now()
	m.next.ServeHTTP(sw, r)
	end := time.Now()
	ms := float64(end.Sub(start)) / float64(time.Millisecond)

	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests++
	switch {
	case sw.status == http.StatusTooManyRequests:
		m.throttled++
		m.failures++
	case sw.status == http.StatusConflict && route == "result":
		m.rejected++
		m.failures++
	case sw.status >= 400:
		m.failures++
	}
	switch route {
	case "lease":
		m.leaseMs = append(m.leaseMs, ms)
		var g service.LeaseGrant
		if m.tr != nil && sw.status == http.StatusOK && json.Unmarshal(sw.body, &g) == nil {
			m.granted[g.LeaseID] = grant{key: g.Key.String(), at: end}
		}
	case "result":
		m.uploadB += r.ContentLength
		m.complMs = append(m.complMs, ms)
	}
	if m.tr == nil {
		return
	}
	trace := "study"
	if route == "result" || route == "heartbeat" {
		leaseID := strings.Split(strings.TrimPrefix(r.URL.Path, "/api/v1/leases/"), "/")[0]
		if g, ok := m.granted[leaseID]; ok {
			trace = g.key
			if route == "result" {
				m.tr.record(m.root, g.key, "farm.shard", "farm", g.at, start)
				delete(m.granted, leaseID)
			}
		}
	}
	m.tr.record(m.root, trace, "service."+route, "service", start, end)
}

// routeOf names the API route of a request by its path.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/api/v1/leases":
		return "lease"
	case strings.HasPrefix(p, "/api/v1/leases/"):
		return p[strings.LastIndexByte(p, '/')+1:]
	case strings.HasSuffix(p, "/export"):
		return "export"
	}
	return "other"
}

// writeDurable writes data to path and fsyncs it.
func writeDurable(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
