package farm

import (
	"encoding/json"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/triage"
)

// The encoding/json oracle for the shard-record codec. journalRecord is the
// record schema: the codec in record.go must emit exactly json.Marshal's
// bytes for it, and anything the codec decodes, json.Unmarshal must decode
// to the same ShardResult.

// journalRecord is one completed shard.
type journalRecord struct {
	Index     int          `json:"index"`
	Key       ShardKey     `json:"key"`
	Seed      uint64       `json:"seed"`
	Sent      int          `json:"sent"`
	BootCount int          `json:"bootCount"`
	Summary   core.Summary `json:"summary"`
	Report    reportJSON   `json:"report"`
	Crashes   []crashJSON  `json:"crashes,omitempty"`
}

// crashJSON is one serialized triage record (crash or ANR), including the
// flight-recorder window captured at the failure; Kind is omitted for plain
// crashes (the zero value).
type crashJSON struct {
	Kind      string            `json:"kind,omitempty"`
	Process   string            `json:"process,omitempty"`
	Component string            `json:"component,omitempty"`
	Classes   []string          `json:"classes,omitempty"`
	Frames    []string          `json:"frames,omitempty"`
	Fault     string            `json:"fault,omitempty"`
	Intent    *intentJSON       `json:"intent,omitempty"`
	Trace     string            `json:"trace,omitempty"`
	Flight    []telemetry.Event `json:"flight,omitempty"`
}

func exportCrashes(crashes []*triage.Crash) []crashJSON {
	out := make([]crashJSON, 0, len(crashes))
	for _, c := range crashes {
		out = append(out, crashJSON{
			Kind:      c.Kind,
			Process:   c.Process,
			Component: c.Component,
			Classes:   c.Classes,
			Frames:    c.Frames,
			Fault:     c.Fault,
			Intent:    exportIntent(c.Intent),
			Trace:     c.Trace,
			Flight:    c.Flight,
		})
	}
	return out
}

func restoreCrashes(cjs []crashJSON) []*triage.Crash {
	out := make([]*triage.Crash, 0, len(cjs))
	for _, cj := range cjs {
		out = append(out, &triage.Crash{
			Kind:      cj.Kind,
			Process:   cj.Process,
			Component: cj.Component,
			Classes:   cj.Classes,
			Frames:    cj.Frames,
			Fault:     cj.Fault,
			Intent:    cj.Intent.restore(),
			Trace:     cj.Trace,
			Flight:    cj.Flight,
		})
	}
	return out
}

// oracleEncode is the record encoder as it was before the codec:
// json.Marshal of journalRecord.
func oracleEncode(idx int, sr *ShardResult) ([]byte, error) {
	return json.Marshal(journalRecord{
		Index:     idx,
		Key:       sr.Key,
		Seed:      sr.Seed,
		Sent:      sr.Sent,
		BootCount: sr.BootCount,
		Summary:   sr.Summary,
		Report:    exportReport(sr.Report),
		Crashes:   exportCrashes(sr.Crashes),
	})
}

// oracleDecode is the record decoder as it was before the codec.
func oracleDecode(data []byte) (int, *ShardResult, error) {
	var rec journalRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return 0, nil, err
	}
	return rec.Index, &ShardResult{
		Key:       rec.Key,
		Seed:      rec.Seed,
		Sent:      rec.Sent,
		BootCount: rec.BootCount,
		Summary:   rec.Summary,
		Report:    rec.Report.restore(),
		Crashes:   restoreCrashes(rec.Crashes),
	}, nil
}
