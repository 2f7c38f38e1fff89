package wearos

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/binder"
	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/manifest"
	"repro/internal/sensors"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// Config describes one simulated device.
type Config struct {
	// DeviceName appears in boot logs (e.g. "moto360", "nexus6",
	// "wear-emulator").
	DeviceName string
	// OSVersion appears in boot logs (e.g. "Android Wear 2.0", "Android 7.1.1").
	OSVersion string
	// ANRThreshold is how long the main looper may stay busy before the
	// watchdog declares an ANR. Android uses 5 s for input dispatch.
	ANRThreshold time.Duration
	// LogCapacity bounds the logcat ring buffer (0 = default).
	LogCapacity int
	// Aging parameterizes the system-server aging model.
	Aging AgingConfig
	// DisableTelemetry skips creating the device metric registry and span
	// tracer; every instrumentation site degrades to a nil-check. The zero
	// value keeps telemetry on.
	DisableTelemetry bool
}

// DefaultWatchConfig returns the Moto 360 / Android Wear 2.0 configuration
// used in the paper's QGJ-Master experiments.
func DefaultWatchConfig() Config {
	return Config{
		DeviceName:   "moto360",
		OSVersion:    "Android Wear 2.0",
		ANRThreshold: 5 * time.Second,
		Aging:        DefaultAgingConfig(),
	}
}

// DefaultPhoneConfig returns the Nexus 6 / Android 7.1.1 configuration used
// for the phone-comparison experiment (Table IV).
func DefaultPhoneConfig() Config {
	return Config{
		DeviceName:   "nexus6",
		OSVersion:    "Android 7.1.1",
		ANRThreshold: 5 * time.Second,
		Aging:        DefaultAgingConfig(),
	}
}

// DefaultEmulatorConfig returns the Android Watch emulator (API 25)
// configuration used in the QGJ-UI experiments.
func DefaultEmulatorConfig() Config {
	return Config{
		DeviceName:   "wear-emulator",
		OSVersion:    "Android 7.1.1 (API 25)",
		ANRThreshold: 5 * time.Second,
		Aging:        DefaultAgingConfig(),
	}
}

// Outcome is what a component handler reports back to the dispatcher after
// processing an intent. Handlers come from the synthetic app fleet.
type Outcome struct {
	// Thrown is the exception raised while handling the intent (nil when
	// handling was clean).
	Thrown *javalang.Throwable
	// Caught marks the exception as handled inside the app (logged, no
	// crash).
	Caught bool
	// Rejected marks the exception as thrown back across the IPC boundary
	// to the caller instead of crashing the component: the component (or
	// the framework on its behalf) validated the intent and refused it.
	// This is how the paper observes large numbers of
	// IllegalArgumentExceptions that do not crash anything: the exception
	// is uncaught by the *target* but absorbed by the *sender* (QGJ).
	Rejected bool
	// BusyFor occupies the process main looper for the given duration;
	// exceeding the ANR threshold produces an ANR.
	BusyFor time.Duration
}

// Handler executes a component's reaction to a delivered intent. Env gives
// the handler access to its process identity and the device clock.
type Handler func(env *Env, in *intent.Intent) Outcome

// Env is the execution environment the dispatcher hands to a component
// handler.
type Env struct {
	PID   int
	Clock vclock.Clock
	Log   *logcat.Logger
}

// DeliveryResult classifies what the dispatcher observed for one intent.
// This is QGJ's *summary* view; the study's ground truth comes from parsing
// logcat, like the paper.
type DeliveryResult int

const (
	// DeliveredNoEffect: handled without any visible failure.
	DeliveredNoEffect DeliveryResult = iota + 1
	// DeliveredHandledException: an exception was raised but caught by the
	// app.
	DeliveredHandledException
	// DeliveredRejected: the component threw a validation exception back to
	// the caller; no crash, intent refused.
	DeliveredRejected
	// DeliveredCrash: uncaught exception; process died (FATAL EXCEPTION).
	DeliveredCrash
	// DeliveredANR: the component wedged the main looper past the ANR
	// threshold.
	DeliveredANR
	// BlockedSecurity: the OS rejected the intent with a SecurityException.
	BlockedSecurity
	// BlockedNotFound: no such component (ActivityNotFoundException or
	// service resolution failure).
	BlockedNotFound
	// DeviceRebooted: delivering this intent pushed the device over the
	// instability threshold and it rebooted.
	DeviceRebooted
)

// String names the delivery result.
func (r DeliveryResult) String() string {
	switch r {
	case DeliveredNoEffect:
		return "no-effect"
	case DeliveredHandledException:
		return "handled-exception"
	case DeliveredRejected:
		return "rejected"
	case DeliveredCrash:
		return "crash"
	case DeliveredANR:
		return "anr"
	case BlockedSecurity:
		return "security-blocked"
	case BlockedNotFound:
		return "not-found"
	case DeviceRebooted:
		return "reboot"
	default:
		return "unknown"
	}
}

// ComponentTraits carries per-component facts the OS needs for its failure
// escalation paths; the fleet builder registers them alongside handlers.
type ComponentTraits struct {
	// UsesSensorManager marks components whose process holds SensorManager
	// registrations (post-mortem #1 escalation).
	UsesSensorManager bool
	// AmbientBound marks components that bind the Ambient Service when they
	// start (post-mortem #2 escalation).
	AmbientBound bool
}

// OS is one simulated device's operating system. Not safe for concurrent
// use; the simulation is single-threaded by design (see package comment).
type OS struct {
	cfg    Config
	clock  *vclock.Virtual
	buf    *logcat.Buffer
	log    *logcat.Logger
	reg    *manifest.Registry
	perms  *manifest.PermissionRegistry
	router *binder.Router
	procs  *processTable
	sysSrv *SystemServer
	sensor *sensors.Service

	// comps holds the per-component dispatch state, indexed by the
	// registry's dense component IDs; it grows on demand (see slot).
	comps []compState

	bootCount int
	bootTime  time.Time
	rebootLog []time.Time
	dropbox   *dropBox

	tel         *telemetry.Registry
	tracer      *telemetry.Tracer
	rec         *telemetry.Recorder
	osm         osMetrics
	dispatchSeq uint64
	// faultHooks bracket each dispatch when a fault-injection engine is
	// attached; both fields are nil in normal operation so the dormant cost
	// is one predicate check per dispatch (benchgate-enforced).
	faultHooks FaultHooks
	// storageFault, when set, is consulted before every DropBox write; a
	// non-nil Throwable drops the record the way a failing /data partition
	// loses dropbox entries. storageDropped counts the losses.
	storageFault   func() *javalang.Throwable
	storageDropped uint64
	// dispatchPending batches wearos_dispatch_total increments per result;
	// the batch is flushed to the shared atomics every dispatchFlushEvery
	// dispatches and by FlushTelemetry (see the constant's comment).
	dispatchPending [DeviceRebooted + 1]uint32

	// env is the reusable handler environment; the simulation is
	// single-threaded and handlers must not retain it past their call.
	env Env
}

// compState is the dispatch state of one component: what RegisterHandler
// and RegisterBindHandler attached, and its cached gate denials.
type compState struct {
	handler    Handler
	traits     ComponentTraits
	bind       BindHandler
	hasHandler bool
	hasBind    bool
	denials    gateDenials
}

// gateDenials caches a component's rendered gate-denial lines. Denials are
// deterministic per (component, action, uid, kind, reason), and fuzzing
// campaigns hammer the same denials millions of times, so each distinct
// line is formatted exactly once per sender UID.
type gateDenials struct {
	// protected is indexed by intent.ActionInfo.ProtectedIndex and
	// allocated on the first protected-action denial.
	protected   []cachedDenial
	notFound    [2]cachedDenial // indexed by kind: activity, service
	notExported cachedDenial
	permission  cachedDenial
}

// cachedDenial is one rendered denial: the line and the component it
// charges (see logcat.Denial), valid for sender uid when text is set.
type cachedDenial struct {
	uid    int
	text   string
	target intent.ComponentName
}

// count returns how many denials are cached.
func (g *gateDenials) count() int {
	n := 0
	for _, d := range g.protected {
		if d.text != "" {
			n++
		}
	}
	for _, d := range [...]*cachedDenial{&g.notFound[0], &g.notFound[1], &g.notExported, &g.permission} {
		if d.text != "" {
			n++
		}
	}
	return n
}

// clone returns a copy that shares no storage with g.
func (g gateDenials) clone() gateDenials {
	g.protected = append([]cachedDenial(nil), g.protected...)
	return g
}

// cloneComps deep-copies a component state table.
func cloneComps(dst, src []compState) []compState {
	dst = append(dst[:0], src...)
	for i := range dst {
		dst[i].denials = dst[i].denials.clone()
	}
	return dst
}

// slot returns the dispatch state of the component with registry ID id,
// growing the table when the registry has assigned IDs since.
func (o *OS) slot(id int) *compState {
	if id >= len(o.comps) {
		o.comps = append(o.comps, make([]compState, o.reg.IDs()-len(o.comps))...)
	}
	return &o.comps[id]
}

// logDenial logs the denial cached in d for sender uid, rendering it with
// build first when it is missing or was rendered for another uid.
func (o *OS) logDenial(d *cachedDenial, uid int, build func() string) {
	if d.text == "" || d.uid != uid {
		p := logcat.Denial(build())
		*d = cachedDenial{uid: uid, text: p.Text, target: p.Comp}
	}
	o.log.LogLazy(1000, 1000, logcat.Warn, logcat.TagActivityManager,
		&logcat.Payload{Op: logcat.MsgDenied, Comp: d.target, Text: d.text})
}

// spanSampleEvery is the dispatch span sampling rate (power of two). A span
// per delivery costs several allocations and tracer mutex round-trips —
// far over the telemetry overhead budget at millions of intents — so only
// every Nth dispatch is traced. Counters and histograms remain exact. The
// rate is set so the amortized span cost stays under the <5% overhead
// budget now that an uninstrumented dispatch runs in a few hundred ns.
const spanSampleEvery = 512

// dispatchFlushEvery is the batching window for the per-result
// wearos_dispatch_total counters (power of two). The simulation is
// single-threaded, so the exact tallies accumulate in a plain array and the
// shared atomics are only touched once per window; the fuzzer flushes at
// every component-run boundary so campaign-scale scrapes stay exact.
const dispatchFlushEvery = 16

// instabilitySampleEvery is how often a clean (no-effect) dispatch refreshes
// the wearos_instability gauge (power of two). Instability only rises on
// failures — which refresh the gauge immediately — so between failures the
// gauge merely tracks decay, and a sampled refresh keeps scrapes fresh
// without paying the decay computation per intent.
const instabilitySampleEvery = 16

// osMetrics caches the device-level metric handles so hot paths touch only
// atomics, never the registry map. All fields are nil (no-op) when telemetry
// is disabled.
type osMetrics struct {
	// dispatch is indexed by DeliveryResult (valid values start at 1, so
	// index 0 is unused); an array beats a map on the per-intent path.
	dispatch    [DeviceRebooted + 1]*telemetry.Counter
	procStarts  *telemetry.Counter
	procDeaths  *telemetry.Counter
	anrs        *telemetry.Counter
	reboots     *telemetry.Counter
	instability *telemetry.Gauge
	liveProcs   *telemetry.Gauge
	bootCount   *telemetry.Gauge
}

func newOSMetrics(reg *telemetry.Registry) osMetrics {
	m := osMetrics{
		procStarts:  reg.Counter("wearos_process_starts_total"),
		procDeaths:  reg.Counter("wearos_process_deaths_total"),
		anrs:        reg.Counter("wearos_anr_total"),
		reboots:     reg.Counter("wearos_reboots_total"),
		instability: reg.Gauge("wearos_instability"),
		liveProcs:   reg.Gauge("wearos_live_processes"),
		bootCount:   reg.Gauge("wearos_boot_count"),
	}
	if reg != nil {
		for r := DeliveredNoEffect; r <= DeviceRebooted; r++ {
			m.dispatch[r] = reg.Counter("wearos_dispatch_total", telemetry.L("result", r.String()))
		}
	}
	return m
}

// New boots a simulated device with the given configuration.
func New(cfg Config) *OS {
	o := newKernel(cfg, vclock.NewVirtual(time.Time{}), logcat.NewBuffer(cfg.LogCapacity))
	o.logBootSequence()
	return o
}

// newKernel wires up every OS subsystem around the provided clock and log
// buffer without logging the boot sequence. New composes it with a fresh
// clock and an eagerly allocated ring; Snapshot.Clone composes it with the
// template's frozen clock time and a lazily grown ring pre-seeded with the
// boot baseline.
func newKernel(cfg Config, clock *vclock.Virtual, buf *logcat.Buffer) *OS {
	log := logcat.NewLogger(buf, clock.Now)
	if cfg.ANRThreshold <= 0 {
		cfg.ANRThreshold = 5 * time.Second
	}
	var tel *telemetry.Registry
	var tracer *telemetry.Tracer
	if !cfg.DisableTelemetry {
		tel = telemetry.NewRegistry()
		tracer = telemetry.NewTracer(nil, telemetry.DefaultSpanCapacity)
	}
	o := &OS{
		cfg:     cfg,
		clock:   clock,
		buf:     buf,
		log:     log,
		tel:     tel,
		tracer:  tracer,
		reg:     manifest.NewRegistry(),
		perms:   manifest.NewPermissionRegistry(manifest.StandardPermissions...),
		router:  binder.NewRouter(),
		procs:   newProcessTable(2000),
		dropbox: newDropBox(),
	}
	o.sysSrv = newSystemServer(cfg.Aging, clock.Now, log)
	o.sysSrv.requestReboot = o.reboot
	o.sensor = sensors.NewService(o.procs.allocPID(), log)
	o.sensor.OnAbort(func(sig string) {
		o.sysSrv.RecordCoreServiceDown("sensorservice", sig)
	})
	o.sysSrv.abortSensorService = func() { o.sensor.Abort(javalang.SIGABRT) }
	o.sysSrv.restartProcess = func(proc string) {
		if p := o.procs.kill(proc); p != nil {
			o.router.SetAlive(p.PID, false)
			o.osm.procDeaths.Inc()
			o.osm.liveProcs.Set(float64(o.procs.live()))
			o.log.Log(1000, 1000, logcat.Info, logcat.TagActivityManager,
				"Killing %d:%s: rejuvenation", p.PID, proc)
		}
	}
	o.osm = newOSMetrics(tel)
	o.router.SetTelemetry(tel)
	o.buf.SetTelemetry(tel)
	o.buf.OnFirstDrop(func(capacity int) {
		if ringFullWarned.CompareAndSwap(false, true) {
			fmt.Fprintln(os.Stderr, ringFullWarning(capacity))
		}
	})
	return o
}

// ringFullWarned limits the ring-full warning to once per process: a study
// overflows the ring of every busy shard device the same way, and
// DroppedSummary reports the total at the end of the run.
var ringFullWarned atomic.Bool

// ringFullWarning is the operator message for a device's first logcat
// eviction. The streaming analyzer and triage consume every line as it is
// appended, so they lose nothing; only readers of the retained ring do.
func ringFullWarning(capacity int) string {
	return fmt.Sprintf("wearos: logcat ring full (capacity %d): oldest lines are being dropped "+
		"from the ring, so logcat dumps, snapshots and adb pulls will miss them "+
		"(the streaming analyzer and triage have already consumed them)", capacity)
}

// DroppedSummary is the end-of-run line reporting how many lines full
// logcat rings evicted during a run (see ringFullWarning).
func DroppedSummary(dropped uint64) string {
	return fmt.Sprintf("logcat: %d lines dropped from full device rings "+
		"(missing from dumps, snapshots and adb pulls; the analyzer and triage saw every line)", dropped)
}

func (o *OS) logBootSequence() {
	o.bootCount++
	o.bootTime = o.clock.Now()
	o.osm.bootCount.Set(float64(o.bootCount))
	o.log.Log(1, 1, logcat.Info, logcat.TagBoot,
		"%s booting %s (boot #%d)", o.cfg.DeviceName, o.cfg.OSVersion, o.bootCount)
	o.log.Log(1000, 1000, logcat.Info, logcat.TagSystemServer, "system_server started")
	o.log.Log(1, 1, logcat.Info, logcat.TagBoot, "BOOT_COMPLETED")
}

// Clock returns the device's virtual clock; the fuzzer advances it to pace
// injections.
func (o *OS) Clock() *vclock.Virtual { return o.clock }

// Logcat returns the device log buffer (adb logcat's source).
func (o *OS) Logcat() *logcat.Buffer { return o.buf }

// Logger returns a logger stamping entries with device time.
func (o *OS) Logger() *logcat.Logger { return o.log }

// Registry returns the package registry (the PackageManager data plane).
func (o *OS) Registry() *manifest.Registry { return o.reg }

// Permissions returns the device permission registry.
func (o *OS) Permissions() *manifest.PermissionRegistry { return o.perms }

// Binder returns the device's binder router.
func (o *OS) Binder() *binder.Router { return o.router }

// SensorService exposes the native sensor service.
func (o *OS) SensorService() *sensors.Service { return o.sensor }

// SystemServer exposes the aging model, mainly for tests and diagnostics.
func (o *OS) SystemServer() *SystemServer { return o.sysSrv }

// Telemetry returns the device metric registry, or nil when
// Config.DisableTelemetry is set. The registry is safe to scrape from other
// goroutines while the (single-threaded) simulation runs.
func (o *OS) Telemetry() *telemetry.Registry { return o.tel }

// Tracer returns the device span tracer, or nil when telemetry is disabled.
func (o *OS) Tracer() *telemetry.Tracer { return o.tracer }

// SetFlightRecorder attaches a flight recorder: the dispatcher, the gates,
// the failure oracles, and the binder router record structured events into
// it from then on. The recorder is stamped from the device clock. Passing
// nil detaches. Attachment is orthogonal to Config.DisableTelemetry so the
// farm can record flight windows on shard devices whose metric registries
// are attached (or not) separately.
func (o *OS) SetFlightRecorder(rec *telemetry.Recorder) {
	o.rec = rec
	rec.SetClock(o.clock.Now)
	o.router.SetFlightRecorder(rec)
}

// FlightRecorder returns the attached flight recorder, or nil.
func (o *OS) FlightRecorder() *telemetry.Recorder { return o.rec }

// FaultHooks bracket every dispatch for an attached fault-injection engine:
// Pre runs with the dispatch sequence number before delivery (the engine
// opens/closes fault windows on these deterministic coordinates), Post runs
// after delivery with the observed result (the engine's in-window oracle).
type FaultHooks struct {
	Pre  func(seq uint64)
	Post func(seq uint64, res DeliveryResult)
}

// SetFaultHooks attaches (or, with the zero value, detaches) the dispatch
// fault hooks. Hooks are keyed on the dispatch sequence number — a per-boot
// deterministic coordinate — never wall time, so fault schedules replay
// byte-identically.
func (o *OS) SetFaultHooks(h FaultHooks) { o.faultHooks = h }

// DispatchSeq returns the number of dispatches the device has performed.
func (o *OS) DispatchSeq() uint64 { return o.dispatchSeq }

// SetStorageFault installs (or, with nil, lifts) an injected persistent-
// storage fault: DropBox writes consult it and a non-nil Throwable drops
// the record with an I/O error logged against DropBoxManagerService.
func (o *OS) SetStorageFault(fault func() *javalang.Throwable) { o.storageFault = fault }

// StorageDropped returns how many DropBox records injected storage faults
// have destroyed since boot.
func (o *OS) StorageDropped() uint64 { return o.storageDropped }

// FileDropBox files an entry through the same storage path the failure
// oracles use, returning the injected write error if one fired. The fault
// engine's storage probes call this with a probe tag.
func (o *OS) FileDropBox(e DropBoxEntry) *javalang.Throwable {
	return o.persistDropBox(e)
}

// RestartSensorService brings the native sensor service back with a fresh
// PID — the recovery half of a kill/restart fault window (reboots perform
// the same restart as part of the boot sequence).
func (o *OS) RestartSensorService() {
	o.sensor.Restart(o.procs.allocPID())
	o.log.Log(1000, 1000, logcat.Info, logcat.TagSystemServer,
		"restarting crashed service sensorservice (pid %d)", o.sensor.PID())
}

// AttachTelemetry wires a metric registry (and optional tracer) into a
// device booted without one — the snapshot/clone path shares one immutable
// Config per template, so per-shard registries cannot ride in on Config.
// Subsystem handles are re-cached and the state gauges (boot count, live
// processes, instability) are brought current; counters start from zero at
// attach time, which is exactly what a per-shard registry wants.
func (o *OS) AttachTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	o.tel = reg
	o.tracer = tracer
	o.osm = newOSMetrics(reg)
	o.router.SetTelemetry(reg)
	o.buf.SetTelemetry(reg)
	o.osm.bootCount.Set(float64(o.bootCount))
	o.osm.liveProcs.Set(float64(o.procs.live()))
	o.osm.instability.Set(o.sysSrv.Instability())
}

// BootCount returns how many times the device has booted (1 = initial
// boot; each reboot increments it).
func (o *OS) BootCount() int { return o.bootCount }

// Uptime returns time since last boot.
func (o *OS) Uptime() time.Duration { return o.clock.Now().Sub(o.bootTime) }

// RebootTimes returns the instants at which the device rebooted.
func (o *OS) RebootTimes() []time.Time { return append([]time.Time(nil), o.rebootLog...) }

// InstallPackage installs pkg and registers nothing else; handlers are
// attached via RegisterHandler.
func (o *OS) InstallPackage(pkg *manifest.Package) error {
	if err := o.reg.Install(pkg); err != nil {
		return err
	}
	o.log.Log(1000, 1000, logcat.Info, logcat.TagPackageManager,
		"Package %s installed (%d components)", pkg.Name, len(pkg.Components))
	return nil
}

// RegisterHandler attaches the behaviour handler and traits for a
// component. Components without handlers behave as graceful no-ops.
func (o *OS) RegisterHandler(cn intent.ComponentName, h Handler, tr ComponentTraits) {
	st := o.slot(o.reg.Intern(cn))
	st.handler, st.traits, st.hasHandler = h, tr, true
}

// ensureProcess starts the app process on demand, like zygote forking on
// first component start.
func (o *OS) ensureProcess(pkg string) *Process {
	if p := o.procs.get(pkg); p != nil {
		return p
	}
	uid := UIDAppBase + 1 + len(o.procs.byName)
	p := o.procs.start(pkg, uid, o.clock.Now())
	o.router.SetAlive(p.PID, true)
	o.osm.procStarts.Inc()
	o.osm.liveProcs.Set(float64(o.procs.live()))
	o.log.Log(1000, 1000, logcat.Info, logcat.TagActivityManager,
		"Start proc %d:%s/u0a%d for activity", p.PID, pkg, uid-UIDAppBase)
	return p
}

// Process returns the live process for pkg, or nil.
func (o *OS) Process(pkg string) *Process { return o.procs.get(pkg) }

// LiveProcesses returns the number of live app processes.
func (o *OS) LiveProcesses() int { return o.procs.live() }

// StartActivity dispatches an intent to an Activity, applying the Android
// checks in order: protected-action permission, resolution, component
// permission/export, then handler execution.
func (o *OS) StartActivity(in *intent.Intent) DeliveryResult {
	return o.dispatch(in, manifest.Activity)
}

// StartService dispatches an intent to a Service.
func (o *OS) StartService(in *intent.Intent) DeliveryResult {
	return o.dispatch(in, manifest.Service)
}

func (o *OS) dispatch(in *intent.Intent, kind manifest.ComponentType) DeliveryResult {
	verb := "START"
	if kind == manifest.Service {
		verb = "startService"
	}
	var sp *telemetry.Span
	if o.tracer != nil && o.dispatchSeq&(spanSampleEvery-1) == 0 {
		name := "dispatch:START"
		if kind == manifest.Service {
			name = "dispatch:startService"
		}
		sp = o.tracer.Start(name)
	}
	o.dispatchSeq++
	if o.faultHooks.Pre != nil {
		o.faultHooks.Pre(o.dispatchSeq)
	}
	result := o.deliver(in, kind, verb, sp)
	if o.faultHooks.Post != nil {
		o.faultHooks.Post(o.dispatchSeq, result)
	}
	sp.End()
	if o.rec != nil {
		// Static result names and intent-owned strings: the slot write
		// allocates and formats nothing. Clean deliveries take the sampled
		// clock stamp; anything else is failure-adjacent and stamped exactly.
		if result == DeliveredNoEffect {
			o.rec.Record(telemetry.EventDispatch, in.Component.Class, in.Action, result.String())
		} else {
			o.rec.RecordNow(telemetry.EventDispatch, in.Component.Class, in.Action, result.String())
		}
	}
	o.dispatchPending[result]++
	if o.dispatchSeq&(dispatchFlushEvery-1) == 0 {
		o.flushDispatchCounters()
	}
	if result != DeliveredNoEffect || o.dispatchSeq&(instabilitySampleEvery-1) == 0 {
		o.osm.instability.Set(o.sysSrv.Instability())
	}
	return result
}

// flushDispatchCounters pushes the batched per-result dispatch tallies into
// the telemetry registry's atomics.
func (o *OS) flushDispatchCounters() {
	for r := range o.dispatchPending {
		if n := o.dispatchPending[r]; n != 0 {
			o.osm.dispatch[r].Add(uint64(n))
			o.dispatchPending[r] = 0
		}
	}
}

// FlushTelemetry makes every batched device counter current: the per-result
// dispatch tallies and the logcat append counter. The fuzzer calls it at
// component-run boundaries so exposition scrapes between runs are exact;
// mid-run scrapes may lag by at most one batching window.
func (o *OS) FlushTelemetry() {
	o.flushDispatchCounters()
	o.buf.FlushTelemetry()
}

// logDispatch emits the "<verb> u0 <intent> from uid <n>" line. Intents
// shaped like campaign traffic (no categories, MIME type, or flags — the
// only fields the lazy payload cannot carry) store structure instead of
// rendered text; anything richer falls back to eager formatting.
func (o *OS) logDispatch(verb string, in *intent.Intent) {
	if len(in.Categories) == 0 && in.Type == "" && in.Flags == 0 && in.SenderUID == int(int32(in.SenderUID)) {
		o.log.LogLazy(1000, 1000, logcat.Info, logcat.TagActivityManager, &logcat.Payload{
			Op:        logcat.MsgDispatch,
			Verb:      verb,
			Act:       in.Action,
			Data:      intent.URIText(in.Data),
			HasData:   !in.Data.IsZero(),
			Comp:      in.Component,
			HasExtras: in.Extras.Len() > 0,
			UID:       int32(in.SenderUID),
		})
		return
	}
	o.log.Log(1000, 1000, logcat.Info, logcat.TagActivityManager,
		"%s u0 %s from uid %d", verb, in.String(), in.SenderUID)
}

// deliver runs the Android dispatch checks in order under the dispatch span;
// permission and handler stages get child spans so a stalled or slow run
// shows where time went.
func (o *OS) deliver(in *intent.Intent, kind manifest.ComponentType, verb string, sp *telemetry.Span) DeliveryResult {
	o.logDispatch(verb, in)

	var pc *telemetry.Span
	if sp != nil {
		pc = sp.Child("permission-check")
	}
	comp, id, blocked := o.gate(in, kind)
	pc.End()
	if blocked != 0 {
		return blocked
	}

	// 4. Process bring-up and delivery bookkeeping.
	proc := o.ensureProcess(comp.Name.Package)
	proc.lastDelivered, proc.delivered = comp.Name, true
	o.log.LogLazy(1000, 1000, logcat.Info, logcat.TagActivityManager, &logcat.Payload{
		Op:   logcat.MsgDelivering,
		Verb: comp.Type.String(),
		Comp: comp.Name,
		PID:  int32(proc.PID),
	})

	// 5. Handler execution.
	st := o.slot(id)
	var out Outcome
	if h := st.handler; h != nil {
		var hs *telemetry.Span
		if sp != nil {
			hs = sp.Child("handler:" + comp.Flat())
		}
		o.env = Env{PID: proc.PID, Clock: o.clock, Log: o.log}
		out = h(&o.env, in)
		hs.End()
	}
	var ss *telemetry.Span
	if sp != nil {
		ss = sp.Child("settle")
	}
	result := o.settle(proc, comp, o.reg.PackageByID(id), st.traits, out)
	ss.End()

	// 6. Aging consequences are applied; a pending reboot tears the device
	// down *after* the delivery completes, never mid-dispatch.
	if o.sysSrv.MaybeReboot() {
		return DeviceRebooted
	}
	return result
}

// gate applies the pre-delivery Android checks (protected action,
// resolution, export/permission) and returns either the resolved component
// and its registry ID or the blocking DeliveryResult (zero when delivery
// may proceed).
func (o *OS) gate(in *intent.Intent, kind manifest.ComponentType) (*manifest.Component, int, DeliveryResult) {
	// Denial lines are deterministic per (component, action, uid, kind), so
	// each distinct one is rendered once into the target's gate cache and
	// then replayed from there as a lazy entry. Targets the registry has
	// never seen have no cache and render every time.
	id, known := -1, false
	if in.IsExplicit() {
		id, known = o.reg.ID(in.Component)
	}
	var cache *gateDenials
	if known {
		cache = &o.slot(id).denials
	}

	// 1. Protected actions are reserved for the OS; QGJ (an unprivileged
	// app) sending e.g. ACTION_BATTERY_LOW gets a SecurityException and the
	// intent is ignored — "the specified and secure behavior" (Section IV-A).
	if act := in.ActionInfo(); act.Protected() && in.SenderUID != UIDSystem {
		// The javalang.Newf(ClassSecurity, "Permission Denial: not allowed
		// to send broadcast %s from pid=?, uid=%d") line, spelled out with
		// appends: a fresh campaign unit renders every protected action
		// once per component.
		build := func() string {
			line := make([]byte, 0, 160)
			line = append(line, javalang.ClassSecurity...)
			line = append(line, ": Permission Denial: not allowed to send broadcast "...)
			line = append(line, in.Action...)
			line = append(line, " from pid=?, uid="...)
			line = strconv.AppendInt(line, int64(in.SenderUID), 10)
			line = append(line, " targeting "...)
			line = append(line, in.Component.FlattenToString()...)
			return string(line)
		}
		d := &cachedDenial{}
		if cache != nil {
			if cache.protected == nil {
				cache.protected = make([]cachedDenial, intent.ProtectedActionCount)
			}
			d = &cache.protected[act.ProtectedIndex()]
		}
		o.logDenial(d, in.SenderUID, build)
		o.rec.RecordNow(telemetry.EventDenial, in.Component.Class, in.Action, "protected-action")
		return nil, 0, BlockedSecurity
	}

	// 2. Resolution.
	var comp *manifest.Component
	if known {
		if comp = o.reg.ByID(id); comp != nil && comp.Type != kind {
			comp = nil
		}
	} else if !in.IsExplicit() {
		if comp = o.reg.Resolve(in, kind); comp != nil {
			id, _ = o.reg.ID(comp.Name)
		}
	}
	if comp == nil {
		build := func() string {
			if kind == manifest.Activity {
				return javalang.Newf(javalang.ClassActivityNotFound,
					"Unable to find explicit activity class %s; have you declared this activity in your AndroidManifest.xml?",
					in.Component.FlattenToString()).Error()
			}
			return "Unable to start service " + in.Component.FlattenToString() + ": not found"
		}
		d := &cachedDenial{}
		if cache != nil && (kind == manifest.Activity || kind == manifest.Service) {
			d = &cache.notFound[kind-manifest.Activity]
		}
		o.logDenial(d, 0, build)
		o.rec.RecordNow(telemetry.EventDenial, in.Component.Class, in.Action, "not-found")
		return nil, 0, BlockedNotFound
	}

	// 3. Export / permission checks on the target component.
	if in.SenderUID != UIDSystem && (!comp.Exported || comp.Permission != "") {
		cache = &o.slot(id).denials
		if !comp.Exported {
			o.logDenial(&cache.notExported, in.SenderUID, func() string {
				thr := javalang.Newf(javalang.ClassSecurity,
					"Permission Denial: %s not exported from uid %d", comp.Flat(), in.SenderUID)
				return thr.Error() + " targeting " + comp.Flat()
			})
			o.rec.RecordNow(telemetry.EventDenial, in.Component.Class, in.Action, "not-exported")
			return nil, 0, BlockedSecurity
		}
		o.logDenial(&cache.permission, in.SenderUID, func() string {
			thr := javalang.Newf(javalang.ClassSecurity,
				"Permission Denial: starting %s requires %s", comp.Flat(), comp.Permission)
			return thr.Error() + " targeting " + comp.Flat()
		})
		o.rec.RecordNow(telemetry.EventDenial, in.Component.Class, in.Action, "needs-permission")
		return nil, 0, BlockedSecurity
	}
	return comp, id, 0
}

// settle converts a handler outcome into logs, process state changes, and a
// DeliveryResult. pkg is the package declaring comp.
func (o *OS) settle(proc *Process, comp *manifest.Component, pkg *manifest.Package, tr ComponentTraits, out Outcome) DeliveryResult {
	builtIn := pkg != nil && pkg.Origin == manifest.BuiltIn

	// ANR takes precedence: the looper wedged before anything else could be
	// observed.
	if out.BusyFor > o.cfg.ANRThreshold {
		proc.busyUntil = o.clock.Now().Add(out.BusyFor)
		proc.ANRs++
		o.osm.anrs.Inc()
		o.log.Log(1000, 1000, logcat.Error, logcat.TagActivityManager,
			"ANR in %s (%s)", proc.Name, comp.Flat())
		o.log.Log(1000, 1000, logcat.Error, logcat.TagActivityManager,
			"Reason: Input dispatching timed out (Waiting to send non-key event because the touched window has not finished processing certain input events)")
		anrEntry := DropBoxEntry{
			Time: o.clock.Now(), Tag: TagAppANR,
			Process: proc.Name, Component: comp.Name,
			Detail: "ANR in " + proc.Name,
		}
		if out.Thrown != nil {
			anrEntry.ExceptionClass = out.Thrown.Class
		}
		o.persistDropBox(anrEntry)
		if out.Thrown != nil {
			// The exception that wedged the looper is visible in the log
			// even though the process did not crash.
			o.log.Block(proc.PID, proc.PID, logcat.Warn, proc.Name, out.Thrown.TraceLines())
		}
		o.sysSrv.RecordANR(proc.Name, tr.UsesSensorManager)
		o.rec.RecordNow(telemetry.EventVerdict, proc.Name, comp.Flat(), "anr")
		return DeliveredANR
	}

	switch {
	case out.Thrown == nil:
		o.sysSrv.RecordStartSuccess(comp.Name)
		return DeliveredNoEffect
	case out.Caught:
		// Handled gracefully: the app logs it and moves on.
		o.log.LogLazy(proc.PID, proc.PID, logcat.Warn, proc.Name, &logcat.Payload{
			Op:   logcat.MsgCaught,
			Text: out.Thrown.Error(),
		})
		o.sysSrv.RecordStartSuccess(comp.Name)
		return DeliveredHandledException
	case out.Rejected:
		// Validation refusal: the exception crosses the IPC boundary back
		// to the sender. Logged by the system with component attribution so
		// the analyzer can count it (Fig. 2), but nothing crashes.
		o.log.LogLazy(1000, 1000, logcat.Warn, logcat.TagActivityManager, &logcat.Payload{
			Op:   logcat.MsgRejected,
			Comp: comp.Name,
			Text: out.Thrown.Error(),
		})
		o.sysSrv.RecordStartSuccess(comp.Name)
		return DeliveredRejected
	default:
		o.crashProcess(proc, comp, out.Thrown)
		o.sysSrv.RecordAppCrash(proc.Name, builtIn)
		o.sysSrv.RecordStartFailure(comp.Name, tr.AmbientBound)
		return DeliveredCrash
	}
}

// crashProcess emits the FATAL EXCEPTION block and kills the process, the
// way ART's uncaught-exception handler does.
func (o *OS) crashProcess(proc *Process, comp *manifest.Component, thr *javalang.Throwable) {
	lines := make([]string, 0, 2+len(thr.Stack)+4)
	lines = append(lines, "FATAL EXCEPTION: main")
	lines = append(lines, fmt.Sprintf("Process: %s, PID: %d", proc.Name, proc.PID))
	lines = append(lines, thr.TraceLines()...)
	o.log.Block(proc.PID, proc.PID, logcat.Error, logcat.TagAndroidRuntime, lines)
	o.log.Log(1000, 1000, logcat.Info, logcat.TagActivityManager,
		"Process %s (pid %d) has died", proc.Name, proc.PID)
	proc.Crashes++
	o.procs.kill(proc.Name)
	o.router.SetAlive(proc.PID, false)
	o.osm.procDeaths.Inc()
	o.osm.liveProcs.Set(float64(o.procs.live()))
	o.persistDropBox(DropBoxEntry{
		Time: o.clock.Now(), Tag: TagAppCrash,
		Process: proc.Name, Component: comp.Name,
		ExceptionClass: thr.Root().Class,
		Detail:         thr.Root().Error(),
	})
	o.rec.RecordNow(telemetry.EventVerdict, proc.Name, comp.Flat(), string(thr.Root().Class))
}

// reboot tears the device down and boots it again: every process dies, the
// sensor service restarts, aging state clears, and the boot sequence is
// logged. This is the paper's most severe manifestation.
func (o *OS) reboot(reason string) {
	o.log.Log(1000, 1000, logcat.Fatal, logcat.TagSystemServer,
		"!!! REBOOTING: %s !!!", reason)
	for _, p := range o.procs.killAll() {
		o.router.SetAlive(p.PID, false)
		o.osm.procDeaths.Inc()
	}
	o.osm.liveProcs.Set(float64(o.procs.live()))
	o.osm.reboots.Inc()
	o.rebootLog = append(o.rebootLog, o.clock.Now())
	o.persistDropBox(DropBoxEntry{
		Time: o.clock.Now(), Tag: TagSystemRestart,
		Process: "system_server", Detail: reason,
	})
	o.rec.RecordNow(telemetry.EventReboot, "system_server", "", reason)
	o.sysSrv.resetAfterBoot()
	o.sensor.Restart(o.procs.allocPID())
	for _, p := range o.procs.byPID {
		p.delivered = false
	}
	// Boot takes a while even on a watch.
	o.clock.Advance(20 * time.Second)
	o.logBootSequence()
}

// LastDelivered reports the last component an intent was delivered to in
// the process with the given PID; used by diagnostics and tests (the log
// analyzer reconstructs the same mapping from ActivityManager entries).
func (o *OS) LastDelivered(pid int) (intent.ComponentName, bool) {
	p := o.procs.byPID[pid]
	if p == nil || !p.delivered {
		return intent.ComponentName{}, false
	}
	return p.lastDelivered, true
}
