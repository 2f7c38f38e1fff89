package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sync"

	"repro/internal/core"
)

// The checkpoint journal mirrors the paper's reboot-resume scripts: the real
// study ran 1000-intent chunks and a watchdog script restarted the campaign
// from the last completed chunk after every device reboot. Here a chunk is
// one shard (campaign × package on a fresh device); the coordinator appends
// one fsynced JSON line per completed shard, so a SIGKILL at any instant
// loses at most the shard in flight, and -resume replays the journal instead
// of re-executing finished shards.
//
// Format (JSON lines):
//
//	line 1:  journalHeader — version, plan fingerprint, shard count
//	line 2+: one shard record per completed shard with its full merge
//	         inputs (EncodeShardRecord; schema in record.go)
//
// A truncated final line (the SIGKILL artifact) is detected and ignored on
// load. The header fingerprint covers everything that shapes the shard plan
// (seed, fleet, campaigns, targets, generator scaling), so a journal can
// never be resumed against a run it does not describe.

// journalVersion is bumped on any incompatible format change. v2 added
// flight-recorder windows (kind/component/trace/flight) to crash records.
const journalVersion = 2

// journalHeader is the first line of a checkpoint file.
type journalHeader struct {
	Version     int    `json:"v"`
	Fingerprint uint64 `json:"fingerprint"`
	Shards      int    `json:"shards"`
	Seed        uint64 `json:"seed"`
	Fleet       string `json:"fleet"`
}

// fingerprint hashes the run parameters that determine the shard plan and
// per-shard outcomes. Workers is deliberately excluded: the determinism
// contract makes results independent of worker count, so a journal written
// by -workers 8 resumes fine under -workers 1 and vice versa.
func fingerprint(seed uint64, fleet string, shards []ShardKey, gen core.GeneratorConfig) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|seed=%d|fleet=%s|gen=%d,%d,%d,%d|", journalVersion, seed, fleet,
		gen.ActionStride, gen.SchemeStride, gen.RandomVariants, gen.ExtrasVariants)
	for _, k := range shards {
		if k.Campaign == core.CampaignF {
			// Fault shards fold the fault-engine schedule version in: a
			// journal written under a different fault model must not resume.
			fmt.Fprintf(h, "fault=v1|")
			break
		}
	}
	for _, k := range shards {
		fmt.Fprintf(h, "%s;", k.String())
	}
	return h.Sum64()
}

// journal is the append-side of a checkpoint file. Safe for concurrent
// appends from worker goroutines.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// createJournal starts a fresh checkpoint file (truncating any previous
// content) and writes the header.
func createJournal(path string, h journalHeader) (*journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("farm: create checkpoint: %w", err)
	}
	j := &journal{f: f}
	data, err := json.Marshal(h)
	if err == nil {
		err = j.appendRaw(data)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// openJournalAppend reopens an existing checkpoint for further records,
// first truncating it to validLen so a torn trailing record from the killed
// run cannot run into the next append.
func openJournalAppend(path string, validLen int64) (*journal, error) {
	if err := os.Truncate(path, validLen); err != nil {
		return nil, fmt.Errorf("farm: trim torn checkpoint tail: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("farm: reopen checkpoint: %w", err)
	}
	return &journal{f: f}, nil
}

// appendRaw appends one encoded line (without its newline) and fsyncs so
// the record survives a SIGKILL (durability is the whole point of the
// journal). The newline is a second write rather than an append to data:
// records run to tens of megabytes and the caller's slice is not ours to
// grow. A crash between the two writes leaves an unterminated line, which
// loadJournal already treats as torn.
func (j *journal) appendRaw(data []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("farm: write checkpoint record: %w", err)
	}
	if _, err := j.f.Write(newline); err != nil {
		return fmt.Errorf("farm: write checkpoint record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("farm: sync checkpoint: %w", err)
	}
	return nil
}

var newline = []byte{'\n'}

func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}

// isNotExist reports whether err means the checkpoint file is absent (a
// -resume against a path that was never written starts a fresh run).
func isNotExist(err error) bool { return os.IsNotExist(err) }

// loadJournal reads a checkpoint file, tolerating a truncated tail: the
// first malformed or unterminated line ends the replay (everything after it
// was in flight when the run died). Records for the same shard index keep
// the last occurrence. validLen is the byte length of the durable prefix;
// the resume path truncates the file to it before appending, so a torn
// partial record never corrupts the next journal line.
func loadJournal(path string) (journalHeader, map[int]*ShardResult, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return journalHeader{}, nil, 0, err
	}
	hdr, done, validLen, err := parseJournal(data)
	if err != nil {
		return hdr, nil, 0, fmt.Errorf("farm: checkpoint %s: %w", path, err)
	}
	return hdr, done, validLen, nil
}

// parseJournal is loadJournal over the file's bytes.
func parseJournal(data []byte) (journalHeader, map[int]*ShardResult, int64, error) {
	var hdr journalHeader
	line, rest, _ := bytes.Cut(data, newline)
	if len(bytes.TrimSpace(line)) == 0 {
		return hdr, nil, 0, fmt.Errorf("empty")
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		return hdr, nil, 0, fmt.Errorf("bad header: %w", err)
	}
	if hdr.Version != journalVersion {
		return hdr, nil, 0, fmt.Errorf("version %d, want %d", hdr.Version, journalVersion)
	}
	done := make(map[int]*ShardResult)
	validLen := int64(len(data) - len(rest))
	for {
		// appendRaw writes record then newline, so an unterminated line is
		// by definition a torn write — even if it happens to parse.
		line, next, terminated := bytes.Cut(rest, newline)
		if !terminated {
			break
		}
		if len(bytes.TrimSpace(line)) > 0 {
			idx, sr, err := DecodeShardRecord(line)
			if err != nil {
				// Truncated tail: the run was killed mid-append. Everything
				// up to here is durable; the partial record is re-executed.
				break
			}
			done[idx] = sr
		}
		validLen += int64(len(line) + 1)
		rest = next
	}
	return hdr, done, validLen, nil
}
