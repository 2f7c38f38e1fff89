package farm

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/telemetry"
	"repro/internal/triage"
)

// quickGen mirrors experiments.QuickGen (not importable here: experiments
// depends on farm).
func quickGen(k int) core.GeneratorConfig {
	return core.GeneratorConfig{ActionStride: k, SchemeStride: (k + 1) / 2, RandomVariants: 1, ExtrasVariants: 1}
}

// studyShards executes every stride-th shard of cfg's plan on one
// persistent executor and returns the results by shard index.
func studyShards(tb testing.TB, cfg Config, stride int) map[int]*ShardResult {
	tb.Helper()
	p, err := NewPlan(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ex := p.NewExecutor()
	out := make(map[int]*ShardResult)
	for i := 0; i < len(p.Shards()); i += stride {
		if out[i], err = ex.ExecuteShard(i); err != nil {
			tb.Fatalf("shard %d: %v", i, err)
		}
	}
	return out
}

// checkRecord asserts the codec contract on one shard result: the encoder
// emits json.Marshal's bytes, the decoder restores what json.Unmarshal
// restores, and the decoded record re-encodes to what encoding/json makes
// of its own decode. With exact, that must also be the original bytes (a
// record whose strings are valid UTF-8 survives the round trip intact).
func checkRecord(t *testing.T, idx int, sr *ShardResult, exact bool) {
	t.Helper()
	want, err := oracleEncode(idx, sr)
	if err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	got, err := EncodeShardRecord(idx, sr)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(got, want) {
		at := firstDiff(got, want)
		t.Fatalf("record %d (%s) differs from json.Marshal at byte %d:\n got %.120q\nwant %.120q",
			idx, sr.Key, at, got[max(0, at-40):], want[max(0, at-40):])
	}
	gotIdx, gotSR, err := DecodeShardRecord(got)
	if err != nil {
		t.Fatalf("decode record %d (%s): %v", idx, sr.Key, err)
	}
	wantIdx, wantSR, err := oracleDecode(want)
	if err != nil {
		t.Fatalf("oracle decode: %v", err)
	}
	if gotIdx != wantIdx || !reflect.DeepEqual(gotSR, wantSR) {
		t.Fatalf("record %d (%s): decoded result differs from json.Unmarshal's", idx, sr.Key)
	}
	again, err := EncodeShardRecord(gotIdx, gotSR)
	if err != nil {
		t.Fatalf("re-encode record %d: %v", idx, err)
	}
	wantAgain, err := oracleEncode(wantIdx, wantSR)
	if err != nil || !bytes.Equal(again, wantAgain) || (exact && !bytes.Equal(again, want)) {
		t.Fatalf("record %d (%s): decoded record re-encodes differently (%v)", idx, sr.Key, err)
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestShardRecordMatchesEncodingJSON pins the codec to the journal format
// on every record of the wear ABCD and phone ABCDF quick-4 studies at seed
// 1 (the wear_service and phone_triage benchmark shapes): crash-heavy wear
// flight windows and phone fault verdicts. Under the race detector, which
// has nothing to watch in this single-goroutine comparison and slows it
// ~15x, every eighth shard stands in for the study.
func TestShardRecordMatchesEncodingJSON(t *testing.T) {
	stride := 1
	if raceEnabled {
		stride = 8
	}
	studies := map[string]Config{
		"wear ABCD": {Seed: 1, Fleet: apps.WearFleet, Gen: quickGen(4)},
		"phone ABCDF": {Seed: 1, Fleet: apps.PhoneFleet, Gen: quickGen(4),
			Campaigns: []core.Campaign{core.CampaignA, core.CampaignB, core.CampaignC, core.CampaignD, core.CampaignF}},
	}
	for name, cfg := range studies {
		t.Run(name, func(t *testing.T) {
			crashes := 0
			for idx, sr := range studyShards(t, cfg, stride) {
				checkRecord(t, idx, sr, true)
				crashes += len(sr.Crashes)
			}
			if crashes == 0 {
				t.Fatalf("%s produced no crash records; the test would not cover flight windows", name)
			}
		})
	}
}

// hostileStrings exercise every escaping rule of encoding/json: HTML
// characters, quotes and backslashes, every control byte, DEL, the JSONP
// separators, invalid UTF-8 (lone continuation, truncated sequence,
// surrogate halves), multi-byte text, and an already-escaped-looking
// payload.
var hostileStrings = func() []string {
	ctl := make([]byte, 0, 0x20)
	for c := byte(0); c < 0x20; c++ {
		ctl = append(ctl, c)
	}
	return []string{
		"plain.ascii/Text-1_2",
		"<script>alert('x')</script> & friends",
		`quote " and back\slash \u0041 \n`,
		string(ctl) + "\x7f",
		"\u2028line\u2029para",
		"\xff\xfe\x80",
		"tail\xc3",
		"\xed\xa0\x80 surrogate",
		"日本語 ünïcödé \U0001F600",
		"\ufffd literal replacement",
		" leading and trailing ",
	}
}()

// hostileRecord builds a record with s in every string field of the
// format, at every nesting level.
func hostileRecord(s string) *ShardResult {
	cn := intent.ComponentName{Package: s, Class: s + ".Main"}
	rep := analysis.AnalyzeEntries(nil)
	rep.CoreServiceDeaths = []string{s}
	rep.RebootTimes = []time.Time{time.Date(2018, 6, 25, 9, 30, 0, 123456789, time.UTC)}
	rep.Components[cn] = &analysis.ComponentReport{
		Component:  cn,
		Type:       s,
		Deliveries: 3,
		Rejected:   map[javalang.Class]int{javalang.Class(s): 2},
		Caught:     map[javalang.Class]int{},
		CrashRoots: map[javalang.Class]int{javalang.Class(s + "$Root"): 1},
		ANRClasses: map[javalang.Class]int{},
	}
	in := &intent.Intent{
		Action:     s,
		Data:       intent.URI{Scheme: s, Host: s, Path: "/" + s, Query: s, Fragment: s},
		Categories: []string{s, "android.intent.category.DEFAULT"},
		Type:       s,
		Component:  cn,
		Flags:      0x10000000,
	}
	in.PutExtra(s, intent.StringValue(s))
	in.PutExtra("uri", intent.URIValue(intent.URI{Scheme: "tel", Opaque: s}))
	in.PutExtra("n", intent.IntValue(-42))
	in.PutExtra("f", intent.Value{Kind: intent.KindFloat, F64: 0.1})
	ev := func(seq uint64, kind telemetry.EventKind, at time.Time) telemetry.Event {
		return telemetry.Event{Seq: seq, Time: at, Kind: kind, Trace: "A/" + s, Subject: s, Action: s, Detail: s}
	}
	zone := time.FixedZone("", 5*3600+30*60)
	return &ShardResult{
		Key:       ShardKey{Campaign: core.CampaignA, Package: s},
		Seed:      ^uint64(0),
		Sent:      1 << 40,
		BootCount: -1,
		Summary:   core.Summary{Package: s, Campaign: s, Sent: 7, Crashes: 1},
		Report:    rep,
		Crashes: []*triage.Crash{
			{
				Kind: s, Process: s, Component: s, Classes: []string{s, s + "2"}, Frames: []string{s},
				Fault: s, Intent: in, Trace: s,
				Flight: []telemetry.Event{
					ev(1, telemetry.EventIntent, time.Time{}),
					ev(2, telemetry.EventDispatch, time.Date(2018, 6, 25, 9, 30, 0, 1, time.UTC)),
					ev(18446744073709551615, telemetry.EventFault, time.Date(9999, 12, 31, 23, 59, 59, 999999999, zone)),
					{Seq: 4, Time: time.Unix(1529919000, 0).UTC(), Kind: telemetry.EventVerdict},
				},
			},
			{},
			{Kind: triage.KindANR, Flight: []telemetry.Event{ev(5, telemetry.EventBinder, time.Unix(0, 0).UTC())}},
		},
	}
}

// TestShardRecordHostileStrings puts every hostile string into every
// string field and checks the codec against encoding/json.
func TestShardRecordHostileStrings(t *testing.T) {
	for i, s := range hostileStrings {
		checkRecord(t, i, hostileRecord(s), utf8.ValidString(s))
	}
	// A record with no crashes omits the crashes key entirely.
	sr := hostileRecord("x")
	sr.Crashes = nil
	checkRecord(t, 0, sr, true)
}

// TestShardRecordEncodeErrors pins the encoder's failures to
// encoding/json's: a timestamp outside RFC 3339's years fails both, and an
// unknown event kind encodes (as "unknown") in both but decodes in neither.
func TestShardRecordEncodeErrors(t *testing.T) {
	sr := hostileRecord("x")
	sr.Crashes[0].Flight[0].Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := oracleEncode(0, sr); err == nil {
		t.Fatal("oracle accepted a year-10000 timestamp")
	}
	if _, err := EncodeShardRecord(0, sr); err == nil {
		t.Fatal("codec accepted a year-10000 timestamp")
	}

	sr = hostileRecord("x")
	sr.Crashes[0].Flight[0].Kind = 0
	want, err := oracleEncode(0, sr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeShardRecord(0, sr)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("unknown event kind: codec %v, bytes equal %v", err, bytes.Equal(got, want))
	}
	if _, _, err := oracleDecode(got); err == nil {
		t.Fatal("oracle decoded an unknown event kind")
	}
	if _, _, err := DecodeShardRecord(got); err == nil {
		t.Fatal("codec decoded an unknown event kind")
	}
}

// TestShardRecordDecoderIsStrict lists non-canonical spellings of a valid
// record that encoding/json would take and the codec must refuse.
func TestShardRecordDecoderIsStrict(t *testing.T) {
	rec, err := EncodeShardRecord(3, hostileRecord("x"))
	if err != nil {
		t.Fatal(err)
	}
	edits := map[string]func(string) string{
		"trailing newline":    func(r string) string { return r + "\n" },
		"trailing bytes":      func(r string) string { return r + "{}" },
		"leading space":       func(r string) string { return " " + r },
		"space after colon":   func(r string) string { return strings.Replace(r, `"seed":`, `"seed": `, 1) },
		"reordered keys":      func(r string) string { return strings.Replace(r, `{"index":3,`, `{`, 1)[:len(r)-10] + `,"index":3}` },
		"unknown key":         func(r string) string { return strings.Replace(r, `,"seed":`, `,"extra":1,"seed":`, 1) },
		"missing key":         func(r string) string { return strings.Replace(r, `"bootCount":-1,`, ``, 1) },
		"upper-case key":      func(r string) string { return strings.Replace(r, `"index"`, `"INDEX"`, 1) },
		"leading zero":        func(r string) string { return strings.Replace(r, `"index":3`, `"index":03`, 1) },
		"negative zero":       func(r string) string { return strings.Replace(r, `"index":3`, `"index":-0`, 1) },
		"float index":         func(r string) string { return strings.Replace(r, `"index":3`, `"index":3.0`, 1) },
		"empty optional":      func(r string) string { return strings.Replace(r, `{"kind":"x",`, `{"kind":"","process":"x",`, 1) },
		"empty flight":        func(r string) string { return strings.Replace(r, `{}`, `{"flight":[]}`, 1) },
		"null intent":         func(r string) string { return strings.Replace(r, `"fault":"x",`, `"fault":"x","intent":null,`, 1) },
		"escaped event kind":  func(r string) string { return strings.Replace(r, `"kind":"intent"`, `"kind":"\u0069ntent"`, 1) },
		"unterminated string": func(r string) string { return r[:strings.Index(r, `"process":"x`)+12] },
	}
	for name, edit := range edits {
		bad := edit(string(rec))
		if bad == string(rec) {
			t.Fatalf("%s: edit did not apply", name)
		}
		if _, _, err := DecodeShardRecord([]byte(bad)); err == nil {
			t.Errorf("%s: decoder accepted %.80q", name, bad)
		}
	}
}

// seedRecords are small real records for the fuzzer: a wear ANR and wear
// crashes with reproducer intents, and phone campaign F fault verdicts,
// each trimmed to a few crashes, flight events and report components so
// mutation stays cheap.
func seedRecords(tb testing.TB) [][]byte {
	tb.Helper()
	shards := []struct {
		fleet apps.FleetKind
		c     core.Campaign
		pkg   string
	}{
		{apps.WearFleet, core.CampaignA, "com.fitify.workouts.wear"},
		{apps.WearFleet, core.CampaignD, "com.wearfacesplus"},
		{apps.PhoneFleet, core.CampaignF, "com.android.theme"},
	}
	var out [][]byte
	for _, s := range shards {
		sr := studyShards(tb, Config{Seed: 1, Fleet: s.fleet, Campaigns: []core.Campaign{s.c}, Packages: []string{s.pkg}, Gen: quickGen(4)}, 1)[0]
		if len(sr.Crashes) == 0 {
			tb.Fatalf("%s produced no crash records", sr.Key)
		}
		sr.Crashes = sr.Crashes[:min(len(sr.Crashes), 2)]
		for i, c := range sr.Crashes {
			cp := *c
			cp.Flight = cp.Flight[max(0, len(cp.Flight)-3):]
			sr.Crashes[i] = &cp
		}
		rep := *sr.Report
		rep.Components = make(map[intent.ComponentName]*analysis.ComponentReport)
		for _, cn := range sr.Report.ComponentNames()[:2] {
			rep.Components[cn] = sr.Report.Components[cn]
		}
		sr.Report = &rep
		rec, err := EncodeShardRecord(len(out), sr)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// FuzzDecodeShardRecord throws arbitrary bytes at the one record decoder
// (uploads, journal loads, resume). It must never panic; whatever it
// accepts, encoding/json must accept too and decode to an equal record,
// and re-encoding must match encoding/json's bytes.
func FuzzDecodeShardRecord(f *testing.F) {
	for _, rec := range seedRecords(f) {
		f.Add(rec)
		f.Add(rec[:len(rec)/2])
		f.Add(rec[:len(rec)-1])
		for _, at := range []int{len(rec) / 3, len(rec) / 2, len(rec) - 2} {
			flipped := bytes.Clone(rec)
			flipped[at] ^= 0x20
			f.Add(flipped)
		}
	}
	f.Add([]byte(`{"index":0}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, sr, err := DecodeShardRecord(data)
		if err != nil {
			return
		}
		wantIdx, wantSR, err := oracleDecode(data)
		if err != nil {
			t.Fatalf("codec accepted a record encoding/json rejects (%v): %q", err, data)
		}
		if idx != wantIdx || !reflect.DeepEqual(sr, wantSR) {
			t.Fatalf("codec and encoding/json decode %q differently", data)
		}
		got, err := EncodeShardRecord(idx, sr)
		want, werr := oracleEncode(wantIdx, wantSR)
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("re-encoding %q: codec %v, oracle %v, equal %v", data, err, werr, bytes.Equal(got, want))
		}
	})
}

// TestJournalTornTail cuts a journal at every byte and checks that the
// load restores exactly the records whose lines are complete, reports the
// durable prefix on a record boundary, and that resuming from that prefix
// rebuilds the original file.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.ckpt")
	hdr := journalHeader{Version: journalVersion, Fingerprint: 0xfeedface, Shards: 3, Seed: 1, Fleet: "wear"}
	jnl, err := createJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	recs := seedRecords(t)
	for _, rec := range recs {
		if err := jnl.appendRaw(rec); err != nil {
			t.Fatal(err)
		}
	}
	jnl.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the file length once i records are durable.
	ends := []int{bytes.IndexByte(full, '\n') + 1}
	for _, rec := range recs {
		ends = append(ends, ends[len(ends)-1]+len(rec)+1)
	}
	if ends[len(ends)-1] != len(full) {
		t.Fatalf("journal is %d bytes, records account for %d", len(full), ends[len(ends)-1])
	}
	decoded := make([]*ShardResult, len(recs))
	for i, rec := range recs {
		if _, decoded[i], err = DecodeShardRecord(rec); err != nil {
			t.Fatal(err)
		}
	}

	for n := 0; n <= len(full); n++ {
		got, done, validLen, err := parseJournal(full[:n])
		if n < ends[0]-1 {
			if err == nil {
				t.Fatalf("prefix %d: a partial header loaded", n)
			}
			continue
		}
		if err != nil || got != hdr {
			t.Fatalf("prefix %d: header %+v, %v", n, got, err)
		}
		complete := 0
		for complete < len(recs) && ends[complete+1] <= n {
			complete++
		}
		want := int64(ends[complete])
		if n == ends[0]-1 {
			want = int64(n) // the header line without its newline
		}
		if validLen != want {
			t.Fatalf("prefix %d: validLen %d, want record boundary %d", n, validLen, want)
		}
		if len(done) != complete {
			t.Fatalf("prefix %d: loaded %d records, want %d", n, len(done), complete)
		}
		for i := 0; i < complete; i++ {
			if !reflect.DeepEqual(done[i], decoded[i]) {
				t.Fatalf("prefix %d: record %d restored differently", n, i)
			}
		}
	}

	// Resume from a cut inside each record: trim to the durable prefix,
	// append the lost records, and the file is the original again.
	for i := range recs {
		cut := ends[i] + len(recs[i])/2
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, done, validLen, err := loadJournal(path)
		if err != nil || len(done) != i {
			t.Fatalf("cut in record %d: %d records, %v", i, len(done), err)
		}
		jnl, err := openJournalAppend(path, validLen)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs[i:] {
			if err := jnl.appendRaw(rec); err != nil {
				t.Fatal(err)
			}
		}
		jnl.Close()
		if again, _ := os.ReadFile(path); !bytes.Equal(again, full) {
			t.Fatalf("resume after a cut in record %d did not rebuild the journal", i)
		}
	}
}
