package farm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/telemetry"
	"repro/internal/triage"
)

// Shard-record codec. A shard record is one journal line and one result
// upload: the canonical encoding/json bytes of journalRecord (the schema
// kept in record_oracle_test.go), i.e. exactly what json.Marshal produced
// before this codec existed. Journals written by either resume under the
// other, and the version and fingerprint are unchanged.
//
// The codec is reflection-free where the bytes are: the record skeleton,
// the crash records and their flight-recorder windows (together ~94% of a
// crash-heavy record) are written and parsed by hand. The small
// sub-objects — key, summary, report and each reproducer intent — go
// through encoding/json on just their byte range, so their field rules stay
// the standard library's.
//
// The decoder is strict: keys must appear in the encoder's order, no
// whitespace is allowed outside delegated sub-objects, omitempty fields
// must be absent rather than empty, integers must be in the encoder's
// canonical form, and nothing may follow the closing brace. Strings are
// unquoted by encoding/json's rules (a plain ASCII string is copied
// straight out of the input). Any deviation is an error, never a panic;
// anything it accepts, encoding/json accepts too and decodes to the same
// record (FuzzDecodeShardRecord).

// EncodeShardRecord renders one shard result in the checkpoint journal's
// wire form (one JSON line, no trailing newline). The same bytes serve as
// a journal record and as a worker's result-upload body, so a record that
// round-trips the journal and one that crossed the network restore
// identically — the byte-identical-merge proof covers both.
func EncodeShardRecord(idx int, sr *ShardResult) ([]byte, error) {
	b, err := appendShardRecord(make([]byte, 0, recordSizeHint(sr)), idx, sr)
	if err != nil {
		return nil, fmt.Errorf("farm: encode shard record: %w", err)
	}
	return b, nil
}

// DecodeShardRecord parses a journal-form shard record back into the merge
// input it encodes.
func DecodeShardRecord(data []byte) (int, *ShardResult, error) {
	d := recordDecoder{data: data, strs: make(map[string]string)}
	idx, sr := d.record()
	if d.err != nil {
		return 0, nil, fmt.Errorf("farm: decode shard record: %w", d.err)
	}
	return idx, sr, nil
}

// recordSizeHint estimates a record's encoded size from its crash
// records' string lengths, so a multi-megabyte record is built in one
// allocation instead of a chain of doublings.
func recordSizeHint(sr *ShardResult) int {
	n := 4096
	for _, c := range sr.Crashes {
		n += 512 + len(c.Process) + len(c.Component) + len(c.Fault) + len(c.Trace)
		for _, s := range c.Classes {
			n += 3 + len(s)
		}
		for _, s := range c.Frames {
			n += 3 + len(s)
		}
		for i := range c.Flight {
			e := &c.Flight[i]
			n += 128 + len(e.Trace) + len(e.Subject) + len(e.Action) + len(e.Detail)
		}
	}
	return n
}

// appendShardRecord appends the canonical record bytes to b.
func appendShardRecord(b []byte, idx int, sr *ShardResult) ([]byte, error) {
	var err error
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(idx), 10)
	b = append(b, `,"key":`...)
	if b, err = appendJSON(b, sr.Key); err != nil {
		return nil, err
	}
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, sr.Seed, 10)
	b = append(b, `,"sent":`...)
	b = strconv.AppendInt(b, int64(sr.Sent), 10)
	b = append(b, `,"bootCount":`...)
	b = strconv.AppendInt(b, int64(sr.BootCount), 10)
	b = append(b, `,"summary":`...)
	if b, err = appendJSON(b, sr.Summary); err != nil {
		return nil, err
	}
	b = append(b, `,"report":`...)
	if b, err = appendJSON(b, exportReport(sr.Report)); err != nil {
		return nil, err
	}
	if len(sr.Crashes) > 0 {
		b = append(b, `,"crashes":[`...)
		var stamps stampMemo
		for i, c := range sr.Crashes {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendCrash(b, c, &stamps); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendJSON appends encoding/json's rendering of one small sub-object.
func appendJSON(b []byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, data...), nil
}

// appendKey appends an object key (given with its quotes and colon),
// preceded by a comma unless it is the first key after the brace at open.
func appendKey(b []byte, open int, key string) []byte {
	if len(b) > open {
		b = append(b, ',')
	}
	return append(b, key...)
}

// appendCrash appends one triage record; every field is omitempty.
func appendCrash(b []byte, c *triage.Crash, stamps *stampMemo) ([]byte, error) {
	b = append(b, '{')
	open := len(b)
	if c.Kind != "" {
		b = appendString(appendKey(b, open, `"kind":`), c.Kind)
	}
	if c.Process != "" {
		b = appendString(appendKey(b, open, `"process":`), c.Process)
	}
	if c.Component != "" {
		b = appendString(appendKey(b, open, `"component":`), c.Component)
	}
	if len(c.Classes) > 0 {
		b = appendStrings(appendKey(b, open, `"classes":`), c.Classes)
	}
	if len(c.Frames) > 0 {
		b = appendStrings(appendKey(b, open, `"frames":`), c.Frames)
	}
	if c.Fault != "" {
		b = appendString(appendKey(b, open, `"fault":`), c.Fault)
	}
	if c.Intent != nil {
		var err error
		if b, err = appendJSON(appendKey(b, open, `"intent":`), exportIntent(c.Intent)); err != nil {
			return nil, err
		}
	}
	if c.Trace != "" {
		b = appendString(appendKey(b, open, `"trace":`), c.Trace)
	}
	if len(c.Flight) > 0 {
		b = append(appendKey(b, open, `"flight":`), '[')
		for i := range c.Flight {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendEvent(b, &c.Flight[i], stamps); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// stampMemo remembers the last timestamp rendered or parsed. The flight
// recorder samples its clock, so runs of consecutive events carry the same
// stamp and most events reuse the previous text or time.
type stampMemo struct {
	ok   bool
	t    time.Time
	text []byte
}

// appendEvent appends one flight-recorder event. The timestamp is
// time.Time's own MarshalText output, which is what its MarshalJSON quotes
// (and fails on in the same cases).
func appendEvent(b []byte, e *telemetry.Event, stamps *stampMemo) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"time":"`...)
	if !stamps.ok || e.Time != stamps.t {
		text, err := e.Time.MarshalText()
		if err != nil {
			return nil, err
		}
		*stamps = stampMemo{ok: true, t: e.Time, text: text}
	}
	b = append(b, stamps.text...)
	b = append(b, `","kind":`...)
	b = appendString(b, e.Kind.String())
	if e.Trace != "" {
		b = appendString(append(b, `,"trace":`...), e.Trace)
	}
	if e.Subject != "" {
		b = appendString(append(b, `,"subject":`...), e.Subject)
	}
	if e.Action != "" {
		b = appendString(append(b, `,"action":`...), e.Action)
	}
	if e.Detail != "" {
		b = appendString(append(b, `,"detail":`...), e.Detail)
	}
	return append(b, '}'), nil
}

func appendStrings(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// htmlSafe marks the ASCII bytes encoding/json copies into a string
// verbatim: printable, and none of '"', '\\', '<', '>', '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// plainWord reports whether all eight bytes of x are htmlSafe, testing the
// whole word at once: no high bit, no byte below 0x20, and no byte equal
// to '"', '\\', '<', '>' or '&' (v-lsbs &^ v flags a zero byte of v).
func plainWord(x uint64) bool {
	q, bs, lt, gt, amp := x^('"'*lsbs), x^('\\'*lsbs), x^('<'*lsbs), x^('>'*lsbs), x^('&'*lsbs)
	bad := x | (x-0x20*lsbs)&^x |
		(q-lsbs)&^q | (bs-lsbs)&^bs | (lt-lsbs)&^lt | (gt-lsbs)&^gt | (amp-lsbs)&^amp
	return bad&msbs == 0
}

// plainPrefix returns how many leading bytes of s, in whole eight-byte
// words, are htmlSafe.
func plainPrefix(s string) int {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		if !plainWord(x) {
			break
		}
	}
	return i
}

// plainBytes is plainPrefix over b, which may run far past the string of
// interest: the scan stops at the first word holding a byte that is not
// htmlSafe, such as the closing quote.
func plainBytes(b []byte) int {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if !plainWord(binary.LittleEndian.Uint64(b[i:])) {
			break
		}
	}
	return i
}

// appendString appends s as a JSON string escaped exactly as encoding/json
// escapes it (HTML-safe): <, > and & as \u00XX escapes, the short
// escapes for \b \f \n \r \t, other control bytes as \u00XX, invalid UTF-8
// as \ufffd, and U+2028/U+2029 escaped. Plain ASCII runs are copied
// through unchanged.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := plainPrefix(s); i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// recordDecoder is a cursor over one record. The first error sticks: every
// method is a no-op once err is set, so the parse reads straight through
// and the caller checks err once.
type recordDecoder struct {
	data []byte
	pos  int
	err  error
	// strs interns the record's strings: a crash-heavy record repeats a
	// handful of trace, subject, action and detail values across tens of
	// thousands of flight events, and the coordinator holds every decoded
	// record until the merge.
	strs map[string]string
	// events is scratch for the flight window being parsed.
	events []telemetry.Event
	// stamps holds the last timestamp token (text) and its parse (t).
	stamps stampMemo
}

func (d *recordDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: "+format, append([]any{d.pos}, args...)...)
	}
}

// accept consumes lit if the input continues with it.
func (d *recordDecoder) accept(lit string) bool {
	if d.err != nil || len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return false
	}
	d.pos += len(lit)
	return true
}

// expect consumes lit or fails.
func (d *recordDecoder) expect(lit string) {
	if !d.accept(lit) {
		d.fail("want %s", lit)
	}
}

// key consumes an optional object key (with its quotes and colon), preceded
// by a comma unless nothing has been read since the object's brace at open.
func (d *recordDecoder) key(open int, key string) bool {
	if d.err != nil {
		return false
	}
	p := d.pos
	if p > open {
		if p >= len(d.data) || d.data[p] != ',' {
			return false
		}
		p++
	}
	if len(d.data)-p < len(key) || string(d.data[p:p+len(key)]) != key {
		return false
	}
	d.pos = p + len(key)
	return true
}

// uint parses a canonical unsigned integer: digits, no leading zero.
func (d *recordDecoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	start := d.pos
	var n uint64
	for ; d.pos < len(d.data); d.pos++ {
		c := d.data[d.pos]
		if c < '0' || c > '9' {
			break
		}
		digit := uint64(c - '0')
		if n > (math.MaxUint64-digit)/10 {
			d.fail("integer overflows")
			return 0
		}
		n = n*10 + digit
	}
	if digits := d.pos - start; digits == 0 || (digits > 1 && d.data[start] == '0') {
		d.pos = start
		d.fail("want canonical integer")
		return 0
	}
	return n
}

// int parses a canonical signed integer ("-0" is not canonical).
func (d *recordDecoder) int() int {
	neg := d.accept("-")
	u := d.uint()
	switch {
	case d.err != nil:
		return 0
	case neg && (u == 0 || u > -math.MinInt):
		d.fail("want canonical int")
		return 0
	case neg:
		return int(-u)
	case u > math.MaxInt:
		d.fail("int overflows")
		return 0
	}
	return int(u)
}

// plain scans a string token whose bytes the encoder writes verbatim (no
// escapes, no bytes outside printable HTML-safe ASCII) and returns its
// contents; ok is false, with the cursor unmoved, for any other token.
func (d *recordDecoder) plain() (s []byte, ok bool) {
	if d.err != nil || d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, false
	}
	start := d.pos + 1
	for i := start + plainBytes(d.data[start:]); i < len(d.data); i++ {
		c := d.data[i]
		if c == '"' {
			d.pos = i + 1
			return d.data[start:i], true
		}
		if c >= utf8.RuneSelf || !htmlSafe[c] {
			return nil, false
		}
	}
	return nil, false
}

// intern returns the record's copy of the string with bytes b.
func (d *recordDecoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// str parses a non-empty string: an omitempty field that is present must
// hold something. Strings with escapes or non-ASCII bytes take the slow
// path, where encoding/json unquotes the token.
func (d *recordDecoder) str() string {
	if b, ok := d.plain(); ok {
		if len(b) == 0 {
			d.pos -= 2
			d.fail("empty string in an omitempty field")
			return ""
		}
		return d.intern(b)
	}
	if d.err != nil {
		return ""
	}
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		d.fail("want string")
		return ""
	}
	end := d.pos + 1
	for ; end < len(d.data) && d.data[end] != '"'; end++ {
		if d.data[end] == '\\' {
			end++
		}
	}
	if end >= len(d.data) {
		d.fail("unterminated string")
		return ""
	}
	var s string
	if err := json.Unmarshal(d.data[d.pos:end+1], &s); err != nil {
		d.fail("bad string: %v", err)
		return ""
	}
	d.pos = end + 1
	if v, ok := d.strs[s]; ok {
		return v
	}
	d.strs[s] = s
	return s
}

// strings parses a non-empty array of strings.
func (d *recordDecoder) strings() []string {
	d.expect("[")
	var out []string
	for d.err == nil {
		out = append(out, d.str())
		if !d.accept(",") {
			break
		}
	}
	d.expect("]")
	return out
}

// object returns the byte range of the object at the cursor. It only
// matches braces; the caller hands the range to encoding/json, which
// validates it.
func (d *recordDecoder) object() []byte {
	if d.err != nil {
		return nil
	}
	start := d.pos
	if start >= len(d.data) || d.data[start] != '{' {
		d.fail("want object")
		return nil
	}
	depth := 0
	for i := start; i < len(d.data); i++ {
		switch d.data[i] {
		case '"':
			for i++; i < len(d.data) && d.data[i] != '"'; i++ {
				if d.data[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			depth--
			if depth == 0 {
				d.pos = i + 1
				return d.data[start:d.pos]
			}
		}
	}
	d.fail("unterminated object")
	return nil
}

// unmarshal decodes the object at the cursor into v with encoding/json.
func (d *recordDecoder) unmarshal(v any) {
	start := d.pos
	obj := d.object()
	if d.err != nil {
		return
	}
	if err := json.Unmarshal(obj, v); err != nil {
		d.pos = start
		d.fail("%v", err)
	}
}

// eventKinds holds each event kind's JSON token, quotes included.
var eventKinds = func() (t [telemetry.EventFault + 1]string) {
	for k := telemetry.EventIntent; k <= telemetry.EventFault; k++ {
		t[k] = `"` + k.String() + `"`
	}
	return t
}()

func (d *recordDecoder) kind() telemetry.EventKind {
	for k := telemetry.EventIntent; k <= telemetry.EventFault; k++ {
		if d.accept(eventKinds[k]) {
			return k
		}
	}
	d.fail("want event kind")
	return 0
}

// time parses a timestamp with time.Time's own UnmarshalJSON, the method
// encoding/json would call on the same token.
func (d *recordDecoder) time() time.Time {
	start := d.pos
	if _, ok := d.plain(); !ok {
		d.fail("want timestamp string")
		return time.Time{}
	}
	tok := d.data[start:d.pos]
	if d.stamps.ok && bytes.Equal(tok, d.stamps.text) {
		return d.stamps.t
	}
	var t time.Time
	if err := t.UnmarshalJSON(tok); err != nil {
		d.pos = start
		d.fail("%v", err)
		return t
	}
	d.stamps = stampMemo{ok: true, t: t, text: tok}
	return t
}

// record parses the whole record and requires the input to end with it.
func (d *recordDecoder) record() (int, *ShardResult) {
	sr := &ShardResult{}
	d.expect(`{"index":`)
	idx := d.int()
	d.expect(`,"key":`)
	d.unmarshal(&sr.Key)
	d.expect(`,"seed":`)
	sr.Seed = d.uint()
	d.expect(`,"sent":`)
	sr.Sent = d.int()
	d.expect(`,"bootCount":`)
	sr.BootCount = d.int()
	d.expect(`,"summary":`)
	d.unmarshal(&sr.Summary)
	d.expect(`,"report":`)
	var rj reportJSON
	d.unmarshal(&rj)
	var crashes []triage.Crash
	if d.accept(`,"crashes":[`) {
		for d.err == nil {
			crashes = append(crashes, triage.Crash{})
			d.crash(&crashes[len(crashes)-1])
			if !d.accept(",") {
				break
			}
		}
		d.expect("]")
	}
	d.expect("}")
	if d.err == nil && d.pos != len(d.data) {
		d.fail("trailing bytes after record")
	}
	if d.err != nil {
		return 0, nil
	}
	sr.Report = rj.restore()
	sr.Crashes = make([]*triage.Crash, len(crashes))
	for i := range crashes {
		sr.Crashes[i] = &crashes[i]
	}
	return idx, sr
}

// crash parses one triage record into c.
func (d *recordDecoder) crash(c *triage.Crash) {
	d.expect("{")
	open := d.pos
	if d.key(open, `"kind":`) {
		c.Kind = d.str()
	}
	if d.key(open, `"process":`) {
		c.Process = d.str()
	}
	if d.key(open, `"component":`) {
		c.Component = d.str()
	}
	if d.key(open, `"classes":`) {
		c.Classes = d.strings()
	}
	if d.key(open, `"frames":`) {
		c.Frames = d.strings()
	}
	if d.key(open, `"fault":`) {
		c.Fault = d.str()
	}
	if d.key(open, `"intent":`) {
		var ij intentJSON
		if d.unmarshal(&ij); d.err == nil {
			c.Intent = ij.restore()
		}
	}
	if d.key(open, `"trace":`) {
		c.Trace = d.str()
	}
	if d.key(open, `"flight":`) {
		c.Flight = d.flight()
	}
	d.expect("}")
}

// flight parses a non-empty flight window into an exactly sized slice.
func (d *recordDecoder) flight() []telemetry.Event {
	d.expect("[")
	ev := d.events[:0]
	for d.err == nil {
		ev = append(ev, telemetry.Event{})
		d.event(&ev[len(ev)-1])
		if !d.accept(",") {
			break
		}
	}
	d.expect("]")
	d.events = ev
	if d.err != nil {
		return nil
	}
	return append([]telemetry.Event(nil), ev...)
}

// event parses one flight-recorder event into e.
func (d *recordDecoder) event(e *telemetry.Event) {
	d.expect(`{"seq":`)
	e.Seq = d.uint()
	d.expect(`,"time":`)
	e.Time = d.time()
	d.expect(`,"kind":`)
	e.Kind = d.kind()
	if d.accept(`,"trace":`) {
		e.Trace = d.str()
	}
	if d.accept(`,"subject":`) {
		e.Subject = d.str()
	}
	if d.accept(`,"action":`) {
		e.Action = d.str()
	}
	if d.accept(`,"detail":`) {
		e.Detail = d.str()
	}
	d.expect("}")
}
