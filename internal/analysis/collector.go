// Package analysis reconstructs the paper's measurements from device logs.
//
// The study's ground truth is logcat: "we collected all of the log files
// (over 2GB) from the wearable using logcat ... Then, we analyzed the logs
// to gather information, and for each component classified the behavior of
// the application according to the expected scenarios" (Section III-D).
// This package implements that pipeline: a streaming Collector consumes log
// entries (either live, as a logcat sink, or from a pulled dump), tracks
// which component each process was last delivered, reassembles FATAL
// EXCEPTION blocks, associates ANR traces, performs the temporal-chain
// root-cause analysis of Section IV-A, and aggregates per-component
// reports. It never sees fuzzer or behaviour-model internals.
package analysis

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/telemetry"
)

// Manifestation is the paper's four-level severity scale (Section III-C),
// ordered so that larger values are more severe.
type Manifestation int

const (
	// ManifestNoEffect: no failure visible (possibly a handled or rejected
	// exception).
	ManifestNoEffect Manifestation = iota + 1
	// ManifestUnresponsive: ANR (hang).
	ManifestUnresponsive
	// ManifestCrash: FATAL EXCEPTION killed the process.
	ManifestCrash
	// ManifestReboot: the component participated in an escalation that
	// rebooted the device.
	ManifestReboot
)

// String names the manifestation the way the paper's figures do.
func (m Manifestation) String() string {
	switch m {
	case ManifestNoEffect:
		return "No Effect"
	case ManifestUnresponsive:
		return "Unresponsive"
	case ManifestCrash:
		return "Crash"
	case ManifestReboot:
		return "Reboot"
	default:
		return "unknown"
	}
}

// AllManifestations lists the scale from least to most severe.
var AllManifestations = []Manifestation{
	ManifestNoEffect, ManifestUnresponsive, ManifestCrash, ManifestReboot,
}

// ComponentReport accumulates everything observed about one component.
type ComponentReport struct {
	Component  intent.ComponentName
	Type       string // "activity" or "service", from delivery logs
	Deliveries int
	// Security counts SecurityException rejections by the OS.
	Security int
	// Rejected counts validation exceptions thrown back to the sender.
	Rejected map[javalang.Class]int
	// Caught counts exceptions the app handled itself.
	Caught map[javalang.Class]int
	// CrashRoots counts root-cause classes of FATAL EXCEPTION blocks
	// (temporal-chain analysis: the first-raised exception in the chain is
	// blamed).
	CrashRoots map[javalang.Class]int
	// ANRs counts hang events; ANRClasses the exception classes visible in
	// the traces that accompanied them.
	ANRs       int
	ANRClasses map[javalang.Class]int
	// RebootInvolved marks the component as part of a reboot escalation
	// window.
	RebootInvolved bool
}

func newComponentReport(cn intent.ComponentName) *ComponentReport {
	return &ComponentReport{
		Component:  cn,
		Rejected:   make(map[javalang.Class]int),
		Caught:     make(map[javalang.Class]int),
		CrashRoots: make(map[javalang.Class]int),
		ANRClasses: make(map[javalang.Class]int),
	}
}

// Manifestation returns the most severe behaviour the component exhibited
// ("If a component has different manifestations to multiple injected
// intents, we take the most severe manifestation", Section IV-A).
func (cr *ComponentReport) Manifestation() Manifestation {
	switch {
	case cr.RebootInvolved:
		return ManifestReboot
	case len(cr.CrashRoots) > 0:
		return ManifestCrash
	case cr.ANRs > 0:
		return ManifestUnresponsive
	default:
		return ManifestNoEffect
	}
}

// UncaughtClasses returns the set of exception classes that escaped the app
// for this component: security rejections, validation rejections, crash
// root causes, and ANR-associated exceptions. Caught exceptions are
// excluded — the app handled those.
func (cr *ComponentReport) UncaughtClasses(includeSecurity bool) []javalang.Class {
	set := make(map[javalang.Class]bool)
	if includeSecurity && cr.Security > 0 {
		set[javalang.ClassSecurity] = true
	}
	for c := range cr.Rejected {
		set[c] = true
	}
	for c := range cr.CrashRoots {
		set[c] = true
	}
	for c := range cr.ANRClasses {
		set[c] = true
	}
	out := make([]javalang.Class, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	return out
}

// Report is the aggregate outcome of one analysis pass.
type Report struct {
	Components map[intent.ComponentName]*ComponentReport
	// RebootTimes records each device reboot seen in the log.
	RebootTimes []time.Time
	// CoreServiceDeaths lists native core-service deaths ("sensorservice
	// SIGABRT", "system_server SIGSEGV").
	CoreServiceDeaths []string
	// CrashEvents counts FATAL EXCEPTION blocks (events, not components).
	CrashEvents int
	// ANREvents counts ANR events.
	ANREvents int
	// SecurityEvents counts SecurityException rejections (events).
	SecurityEvents int
	// Entries counts consumed log lines.
	Entries int
}

func newReport() *Report {
	return &Report{Components: make(map[intent.ComponentName]*ComponentReport)}
}

func (r *Report) component(cn intent.ComponentName) *ComponentReport {
	cr, ok := r.Components[cn]
	if !ok {
		cr = newComponentReport(cn)
		r.Components[cn] = cr
	}
	return cr
}

// rebootWindow is how far back the analyzer looks for the failures that
// escalated into a reboot. The paper's post-mortems are manual; ten
// minutes of virtual time covers both escalation chains (the three sensor
// ANRs are separated by full component sweeps).
const rebootWindow = 10 * time.Minute

// blameWindow is how recent an escalation marker (Watchdog SIGABRT notice,
// AmbientService bind failure) must be to anchor reboot attribution.
const blameWindow = 2 * time.Minute

// anrTraceWindow is how close (in log time) an exception trace must follow
// an ANR entry to be associated with it.
const anrTraceWindow = 2 * time.Second

// recentFailure is a queue entry for reboot attribution.
type recentFailure struct {
	at   time.Time
	comp intent.ComponentName
}

// crashBlock reassembles one in-flight FATAL EXCEPTION block.
type crashBlock struct {
	headers []javalang.Class
}

// Collector is a streaming analyzer; it implements logcat.Sink so it can be
// subscribed directly to a device buffer, and can equally consume pulled
// dumps via ConsumeAll/AnalyzeEntries.
type Collector struct {
	report *Report

	pidComp    map[int]intent.ComponentName
	pidProc    map[int]string
	crashParse map[int]*crashBlock
	recent     []recentFailure
	lastANR    map[string]anrMark // by process name

	// Escalation markers for reboot attribution (the post-mortem anchors).
	blameProcAt time.Time
	blameProc   string
	blameCompAt time.Time
	blameComp   intent.ComponentName
	hasBlame    bool

	// lastName/lastReport memoise the most recent component lookup: a
	// campaign logs thousands of lines in a row about the one component
	// under fuzz.
	lastName   intent.ComponentName
	lastReport *ComponentReport

	// Telemetry (nil = no-op). The counters mirror the Report event tallies;
	// the manifest gauges track every component's current most-severe
	// manifestation so a concurrent scrape always matches what Report()
	// would say.
	entriesTotal   *telemetry.Counter
	crashTotal     *telemetry.Counter
	anrTotal       *telemetry.Counter
	securityTotal  *telemetry.Counter
	rebootsTotal   *telemetry.Counter
	consumeSeconds *telemetry.Histogram
	consumed       uint64 // entries seen while consumeSeconds is set
	manifest       map[Manifestation]*telemetry.Gauge
	levels         map[intent.ComponentName]Manifestation
}

type anrMark struct {
	at   time.Time
	comp intent.ComponentName
}

var _ logcat.EntrySink = (*Collector)(nil)

// NewCollector returns an empty streaming analyzer.
func NewCollector() *Collector {
	return &Collector{
		report:     newReport(),
		pidComp:    make(map[int]intent.ComponentName),
		pidProc:    make(map[int]string),
		crashParse: make(map[int]*crashBlock),
		lastANR:    make(map[string]anrMark),
	}
}

// UseTelemetry wires the collector's classification metrics into reg and
// returns c for chaining. The analysis_components{manifestation=...} gauges
// are maintained incrementally on every severity change, so they agree with
// Report() at any instant without locking the report.
func (c *Collector) UseTelemetry(reg *telemetry.Registry) *Collector {
	if reg == nil {
		return c
	}
	c.entriesTotal = reg.Counter("analysis_entries_total")
	c.crashTotal = reg.Counter("analysis_crash_events_total")
	c.anrTotal = reg.Counter("analysis_anr_events_total")
	c.securityTotal = reg.Counter("analysis_security_events_total")
	c.rebootsTotal = reg.Counter("analysis_reboots_total")
	c.consumeSeconds = reg.Histogram("analysis_consume_seconds", telemetry.DefLatencyBuckets)
	c.manifest = make(map[Manifestation]*telemetry.Gauge, len(AllManifestations))
	for _, m := range AllManifestations {
		c.manifest[m] = reg.Gauge("analysis_components", telemetry.L("manifestation", m.String()))
	}
	c.levels = make(map[intent.ComponentName]Manifestation)
	return c
}

// syncManifest re-derives the component's manifestation and moves it between
// the severity gauges when it changed (or registers it on first sight).
func (c *Collector) syncManifest(cn intent.ComponentName) {
	if c.manifest == nil {
		return
	}
	cr, ok := c.report.Components[cn]
	if !ok {
		return
	}
	cur := cr.Manifestation()
	prev, seen := c.levels[cn]
	if seen && prev == cur {
		return
	}
	if seen {
		c.manifest[prev].Add(-1)
	}
	c.manifest[cur].Add(1)
	c.levels[cn] = cur
}

// Report returns the accumulated report. The collector keeps ownership; do
// not consume further entries while reading concurrently.
func (c *Collector) Report() *Report { return c.report }

// ConsumeAll feeds a slice of entries (a pulled logcat dump) in order.
func (c *Collector) ConsumeAll(entries []logcat.Entry) {
	for i := range entries {
		c.consume(&entries[i])
	}
}

// AnalyzeEntries is the one-shot convenience over a pulled dump.
func AnalyzeEntries(entries []logcat.Entry) *Report {
	c := NewCollector()
	c.ConsumeAll(entries)
	return c.Report()
}

// Consume implements logcat.Sink: one log entry at a time, in order.
func (c *Collector) Consume(e logcat.Entry) { c.consume(&e) }

// ConsumeEntry implements logcat.EntrySink: Consume without the copy.
func (c *Collector) ConsumeEntry(e *logcat.Entry) { c.consume(e) }

// component returns the report of cn, creating it on first sight.
func (c *Collector) component(cn intent.ComponentName) *ComponentReport {
	if c.lastReport != nil && cn == c.lastName {
		return c.lastReport
	}
	cr := c.report.component(cn)
	c.lastName, c.lastReport = cn, cr
	return cr
}

// consumeSampleEvery is the stride of the analysis_consume_seconds sample:
// reading the clock twice per entry would cost more than classifying it.
const consumeSampleEvery = 64

func (c *Collector) consume(e *logcat.Entry) {
	if c.consumeSeconds == nil {
		c.classify(e)
		return
	}
	if c.consumed++; c.consumed%consumeSampleEvery != 0 {
		c.classify(e)
		return
	}
	start := time.Now()
	c.classify(e)
	c.consumeSeconds.Observe(time.Since(start).Seconds())
}

// classify folds one entry into the report.
func (c *Collector) classify(e *logcat.Entry) {
	c.report.Entries++
	c.entriesTotal.Inc()
	if e.Payload.Op != logcat.MsgEager {
		c.consumeLazy(e)
		return
	}
	switch e.Tag {
	case logcat.TagActivityManager:
		c.consumeAM(e)
	case logcat.TagAndroidRuntime:
		c.consumeRuntime(e)
	case logcat.TagDEBUG:
		c.consumeNative(e)
	case logcat.TagSystemServer:
		c.consumeSystemServer(e)
	case logcat.TagWatchdog:
		c.consumeWatchdog(e)
	default:
		c.consumeApp(e)
	}
}

// consumeLazy classifies structurally logged entries straight from their
// payload operands, skipping both the text rendering and the re-parsing the
// eager path pays. Each case mirrors, exactly, what consumeAM/consumeApp
// would conclude from the rendered line (pinned by the dump-equivalence
// tests); entries the eager path ignores — dispatch announcements — are
// ignored here too.
func (c *Collector) consumeLazy(e *logcat.Entry) {
	p := &e.Payload
	switch p.Op {
	case logcat.MsgDelivering:
		cn := p.Comp
		c.pidComp[int(p.PID)] = cn
		cr := c.component(cn)
		cr.Type = p.Verb
		cr.Deliveries++
		c.syncManifest(cn)

	case logcat.MsgDenied:
		// The dispatcher resolved the charged component with the same
		// DenialTarget parse the eager path applies to the text; a zero
		// component is a line the eager path skips too.
		if !p.Comp.IsZero() {
			c.countSecurity(p.Comp)
		}

	case logcat.MsgRejected:
		if class, _, ok := javalang.ParseHeader(p.Text); ok {
			c.component(p.Comp).Rejected[class]++
			c.syncManifest(p.Comp)
		}

	case logcat.MsgCaught:
		cn, ok := c.pidComp[e.PID]
		if !ok {
			return
		}
		if class, _, ok := javalang.ParseHeader(p.Text); ok {
			c.component(cn).Caught[class]++
			c.syncManifest(cn)
		}
	}
}

// countSecurity charges one SecurityException denial to cn.
func (c *Collector) countSecurity(cn intent.ComponentName) {
	c.component(cn).Security++
	c.report.SecurityEvents++
	c.securityTotal.Inc()
	c.syncManifest(cn)
}

func (c *Collector) consumeAM(e *logcat.Entry) {
	msg := e.Message
	switch {
	case strings.HasPrefix(msg, "Delivering to "):
		// "Delivering to activity cmp=<flat> pid=<n>"
		rest := strings.TrimPrefix(msg, "Delivering to ")
		kind, rest, ok := strings.Cut(rest, " cmp=")
		if !ok {
			return
		}
		flat, pidStr, ok := strings.Cut(rest, " pid=")
		if !ok {
			return
		}
		cn, ok := intent.UnflattenComponent(flat)
		if !ok {
			return
		}
		pid, err := strconv.Atoi(strings.TrimSpace(pidStr))
		if err != nil {
			return
		}
		c.pidComp[pid] = cn
		cr := c.component(cn)
		cr.Type = kind
		cr.Deliveries++
		c.syncManifest(cn)

	case strings.Contains(msg, "java.lang.SecurityException") && strings.Contains(msg, " targeting "):
		if cn, ok := logcat.DenialTarget(msg); ok {
			c.countSecurity(cn)
		}

	case strings.HasPrefix(msg, "Exception thrown delivering intent to cmp="):
		rest := strings.TrimPrefix(msg, "Exception thrown delivering intent to cmp=")
		flat, header, ok := strings.Cut(rest, ": ")
		if !ok {
			return
		}
		cn, ok := intent.UnflattenComponent(flat)
		if !ok {
			return
		}
		if class, _, ok := javalang.ParseHeader(header); ok {
			c.component(cn).Rejected[class]++
			c.syncManifest(cn)
		}

	case strings.HasPrefix(msg, "ANR in "):
		// "ANR in <proc> (<flat>)"
		rest := strings.TrimPrefix(msg, "ANR in ")
		proc, flatParen, ok := strings.Cut(rest, " (")
		if !ok {
			return
		}
		flat := strings.TrimSuffix(flatParen, ")")
		cn, ok := intent.UnflattenComponent(flat)
		if !ok {
			return
		}
		cr := c.component(cn)
		cr.ANRs++
		c.report.ANREvents++
		c.anrTotal.Inc()
		c.syncManifest(cn)
		c.lastANR[proc] = anrMark{at: e.Time, comp: cn}
		c.pushRecent(e.Time, cn)

	case strings.HasPrefix(msg, "Process ") && strings.Contains(msg, "has died"):
		// Finalize a pending crash block: "Process <name> (pid <n>) has died".
		pid := parseDiedPID(msg)
		if pid <= 0 {
			return
		}
		blk, ok := c.crashParse[pid]
		if !ok {
			return
		}
		delete(c.crashParse, pid)
		cn, ok := c.pidComp[pid]
		if !ok || len(blk.headers) == 0 {
			return
		}
		// Temporal-chain root cause: the deepest "Caused by" is the first
		// exception raised, so it takes the blame (Section IV-A).
		root := blk.headers[len(blk.headers)-1]
		cr := c.component(cn)
		cr.CrashRoots[root]++
		c.report.CrashEvents++
		c.crashTotal.Inc()
		c.syncManifest(cn)
		c.pushRecent(e.Time, cn)
	}
}

func parseDiedPID(msg string) int {
	i := strings.Index(msg, "(pid ")
	if i < 0 {
		return 0
	}
	rest := msg[i+len("(pid "):]
	j := strings.IndexByte(rest, ')')
	if j < 0 {
		return 0
	}
	pid, err := strconv.Atoi(rest[:j])
	if err != nil {
		return 0
	}
	return pid
}

func (c *Collector) consumeRuntime(e *logcat.Entry) {
	msg := e.Message
	if msg == "FATAL EXCEPTION: main" {
		c.crashParse[e.PID] = &crashBlock{}
		return
	}
	blk, ok := c.crashParse[e.PID]
	if !ok {
		return
	}
	if strings.HasPrefix(msg, "Process: ") || strings.HasPrefix(msg, "\tat ") || strings.HasPrefix(msg, "at ") {
		return
	}
	if class, _, ok := javalang.ParseHeader(msg); ok {
		blk.headers = append(blk.headers, class)
	}
}

func (c *Collector) consumeNative(e *logcat.Entry) {
	msg := e.Message
	if !strings.HasPrefix(msg, "Fatal signal ") {
		return
	}
	switch {
	case strings.Contains(msg, "sensorservice"):
		sig := signalOf(msg)
		c.report.CoreServiceDeaths = append(c.report.CoreServiceDeaths, "sensorservice "+sig)
	case strings.Contains(msg, "system_server"):
		sig := signalOf(msg)
		c.report.CoreServiceDeaths = append(c.report.CoreServiceDeaths, "system_server "+sig)
	}
}

func signalOf(msg string) string {
	for _, sig := range []string{javalang.SIGABRT, javalang.SIGSEGV} {
		if strings.Contains(msg, sig) {
			return sig
		}
	}
	return "SIG?"
}

func (c *Collector) consumeWatchdog(e *logcat.Entry) {
	// "Blocked in handler on sensor thread (client <proc> unresponsive);
	// sending SIGABRT to sensorservice" — the first escalation anchor.
	msg := e.Message
	i := strings.Index(msg, "(client ")
	if i < 0 {
		return
	}
	rest := msg[i+len("(client "):]
	proc, _, ok := strings.Cut(rest, " unresponsive")
	if !ok {
		return
	}
	c.blameProc, c.blameProcAt, c.hasBlame = proc, e.Time, true
}

func (c *Collector) consumeSystemServer(e *logcat.Entry) {
	msg := e.Message
	if strings.HasPrefix(msg, "unable to bind AmbientService for ") {
		// The second escalation anchor names the failing component.
		rest := strings.TrimPrefix(msg, "unable to bind AmbientService for ")
		flat, _, _ := strings.Cut(rest, " after")
		if cn, ok := intent.UnflattenComponent(strings.TrimSpace(flat)); ok {
			c.blameComp, c.blameCompAt, c.hasBlame = cn, e.Time, true
		}
		return
	}
	if !strings.HasPrefix(msg, "!!! REBOOTING") {
		return
	}
	c.report.RebootTimes = append(c.report.RebootTimes, e.Time)
	c.rebootsTotal.Inc()
	c.attributeReboot(e.Time)
	c.recent = c.recent[:0]
	// Processes restart after reboot; stale PID mappings must not leak
	// attributions across the boot.
	c.pidComp = make(map[int]intent.ComponentName)
	c.crashParse = make(map[int]*crashBlock)
	c.lastANR = make(map[string]anrMark)
	c.hasBlame = false
}

// attributeReboot implements the post-mortem: when the log names the
// escalation anchor (the unresponsive sensor client, or the component that
// could not bind the Ambient Service), only that process/component's recent
// failures take the blame; otherwise every recent failure in the window
// does.
func (c *Collector) attributeReboot(at time.Time) {
	cutoff := at.Add(-rebootWindow)
	blameProc := ""
	var blameComp intent.ComponentName
	if c.hasBlame {
		if !c.blameCompAt.IsZero() && at.Sub(c.blameCompAt) <= blameWindow {
			blameComp = c.blameComp
		}
		if !c.blameProcAt.IsZero() && at.Sub(c.blameProcAt) <= blameWindow {
			blameProc = c.blameProc
		}
	}
	if !blameComp.IsZero() {
		c.component(blameComp).RebootInvolved = true
		c.syncManifest(blameComp)
		return
	}
	for _, f := range c.recent {
		if f.at.Before(cutoff) {
			continue
		}
		if blameProc != "" && f.comp.Package != blameProc {
			continue
		}
		c.component(f.comp).RebootInvolved = true
		c.syncManifest(f.comp)
	}
}

// consumeApp handles entries whose tag is an app process name: caught
// exceptions and ANR-adjacent traces.
func (c *Collector) consumeApp(e *logcat.Entry) {
	msg := e.Message
	if strings.HasPrefix(msg, "caught exception while handling intent: ") {
		header := strings.TrimPrefix(msg, "caught exception while handling intent: ")
		cn, ok := c.pidComp[e.PID]
		if !ok {
			return
		}
		if class, _, ok := javalang.ParseHeader(header); ok {
			c.component(cn).Caught[class]++
			c.syncManifest(cn)
		}
		return
	}
	// An exception header logged by the app shortly after its ANR is the
	// trace of whatever wedged the looper (e.g. the DeadObjectException
	// hinting at garbage collection, Section IV-A).
	if mark, ok := c.lastANR[e.Tag]; ok && e.Time.Sub(mark.at) <= anrTraceWindow {
		if class, _, ok := javalang.ParseHeader(msg); ok {
			c.component(mark.comp).ANRClasses[class]++
		}
	}
}

func (c *Collector) pushRecent(at time.Time, cn intent.ComponentName) {
	const maxRecent = 256
	c.recent = append(c.recent, recentFailure{at: at, comp: cn})
	if len(c.recent) > maxRecent {
		c.recent = c.recent[len(c.recent)-maxRecent:]
	}
}
