package wearos

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/logcat"
)

// TestRingFullWarningNamesRingReaders overflows two devices' small logcat
// rings and pins the operator warning they print: exactly one line per
// process, saying the lines are lost to readers of the retained ring
// (dumps, snapshots, adb pulls), not to the streaming analyzer and triage,
// which consume every line as it is appended.
func TestRingFullWarningNamesRingReaders(t *testing.T) {
	ringFullWarned.Store(false)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	func() {
		defer func() { os.Stderr = stderr }()
		cfg := DefaultWatchConfig()
		cfg.LogCapacity = 8
		for dev := 0; dev < 2; dev++ {
			o := New(cfg)
			for i := 0; i < 8; i++ {
				o.Logger().Log(1, 1, logcat.Info, "test", "line")
			}
			if o.Logcat().Dropped() == 0 {
				t.Fatalf("device %d: ring did not overflow", dev)
			}
		}
	}()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = "wearos: logcat ring full (capacity 8): oldest lines are being dropped from the ring, " +
		"so logcat dumps, snapshots and adb pulls will miss them " +
		"(the streaming analyzer and triage have already consumed them)\n"
	if string(out) != want {
		t.Fatalf("warning = %q\nwant      %q", out, want)
	}
	if got := DroppedSummary(3); !strings.HasPrefix(got, "logcat: 3 lines dropped from full device rings") {
		t.Fatalf("DroppedSummary(3) = %q", got)
	}
}
