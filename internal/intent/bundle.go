package intent

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the value types a Bundle entry can carry. The set mirrors
// the extra types the `am` shell utility accepts (--es, --ei, --ef, --ez,
// --el, --eu).
type Kind int

const (
	KindString Kind = iota + 1
	KindInt
	KindLong
	KindFloat
	KindBool
	KindURI
	KindNull // an extra key explicitly mapped to null — a classic NPE trigger
)

// String returns the am-style flag mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindLong:
		return "long"
	case KindFloat:
		return "float"
	case KindBool:
		return "boolean"
	case KindURI:
		return "uri"
	case KindNull:
		return "null"
	default:
		return "unknown"
	}
}

// Value is a typed bundle value.
type Value struct {
	Kind Kind
	Str  string
	I64  int64
	F64  float64
	B    bool
	URI  URI
}

// String renders the value the way Intent.toString would.
func (v Value) String() string {
	switch v.Kind {
	case KindString:
		return v.Str
	case KindInt, KindLong:
		return strconv.FormatInt(v.I64, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F64, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.B)
	case KindURI:
		return v.URI.String()
	case KindNull:
		return "null"
	default:
		return "?"
	}
}

// Convenience constructors.
func StringValue(s string) Value { return Value{Kind: KindString, Str: s} }
func IntValue(i int64) Value     { return Value{Kind: KindInt, I64: i} }
func LongValue(i int64) Value    { return Value{Kind: KindLong, I64: i} }
func FloatValue(f float64) Value { return Value{Kind: KindFloat, F64: f} }
func BoolValue(b bool) Value     { return Value{Kind: KindBool, B: b} }
func URIValue(u URI) Value       { return Value{Kind: KindURI, URI: u} }
func NullValue() Value           { return Value{Kind: KindNull} }

// Bundle is an ordered set of typed key/value extras. Android's Bundle is a
// string-keyed map; we keep insertion order so flattened intents are
// reproducible. Keys and values live in parallel slices: an intent carries
// at most a handful of extras, so a linear scan beats hashing, and a Value
// (larger than a map stores inline) is never boxed.
type Bundle struct {
	keys []string
	vals []Value
	// text backs the string values stored with PutText; Reset recycles it.
	text []byte
}

// NewBundle returns an empty bundle.
func NewBundle() *Bundle { return &Bundle{} }

// index returns the position of key, or -1.
func (b *Bundle) index(key string) int {
	for i, k := range b.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// Put inserts or replaces the value for key. A replaced key keeps its
// position.
func (b *Bundle) Put(key string, v Value) {
	if i := b.index(key); i >= 0 {
		b.vals[i] = v
		return
	}
	b.keys = append(b.keys, key)
	b.vals = append(b.vals, v)
}

// PutText puts a string value whose bytes are copied into the bundle's own
// reusable text buffer instead of a fresh allocation. The stored string
// aliases that buffer: it stays valid until the next Reset, and Clone gives
// the copy strings of its own. Generators that refill one pooled intent use
// it to attach random strings without allocating.
func (b *Bundle) PutText(key string, text []byte) {
	if len(text) == 0 {
		b.Put(key, StringValue(""))
		return
	}
	start := len(b.text)
	b.text = append(b.text, text...)
	b.Put(key, StringValue(unsafe.String(unsafe.SliceData(b.text[start:]), len(text))))
}

// Get returns the value for key; ok is false when absent.
func (b *Bundle) Get(key string) (Value, bool) {
	if b == nil {
		return Value{}, false
	}
	if i := b.index(key); i >= 0 {
		return b.vals[i], true
	}
	return Value{}, false
}

// Len returns the number of extras.
func (b *Bundle) Len() int {
	if b == nil {
		return 0
	}
	return len(b.keys)
}

// KeyAt returns the i-th key in insertion order, without the copy Keys
// makes.
func (b *Bundle) KeyAt(i int) string { return b.keys[i] }

// Keys returns the keys in insertion order (a copy).
func (b *Bundle) Keys() []string {
	if b == nil {
		return nil
	}
	return append([]string(nil), b.keys...)
}

// HasNull reports whether any extra carries an explicit null value.
func (b *Bundle) HasNull() bool {
	if b == nil {
		return false
	}
	for i := range b.vals {
		if b.vals[i].Kind == KindNull {
			return true
		}
	}
	return false
}

// Reset empties the bundle in place, retaining the key, value and text
// storage so a pooled bundle stops allocating once warmed up.
func (b *Bundle) Reset() {
	if b == nil {
		return
	}
	b.keys = b.keys[:0]
	b.vals = b.vals[:0]
	b.text = b.text[:0]
}

// Clone returns a deep copy of the bundle. String values are copied out of
// the text buffer, so the clone stays intact when the original is reset.
func (b *Bundle) Clone() *Bundle {
	if b == nil {
		return nil
	}
	out := &Bundle{
		keys: append([]string(nil), b.keys...),
		vals: append([]Value(nil), b.vals...),
	}
	if len(b.text) > 0 {
		for i := range out.vals {
			if out.vals[i].Kind == KindString {
				out.vals[i].Str = strings.Clone(out.vals[i].Str)
			}
		}
	}
	return out
}

// String renders the bundle content deterministically: insertion order for
// human display, with kind annotations.
func (b *Bundle) String() string {
	if b.Len() == 0 {
		return "Bundle[]"
	}
	var sb strings.Builder
	sb.WriteString("Bundle[")
	for i, k := range b.keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		v := b.vals[i]
		fmt.Fprintf(&sb, "%s=%s(%s)", k, v.String(), v.Kind)
	}
	sb.WriteByte(']')
	return sb.String()
}

// SortedKeys returns keys in lexicographic order; used by tests that compare
// bundles structurally.
func (b *Bundle) SortedKeys() []string {
	ks := b.Keys()
	sort.Strings(ks)
	return ks
}
