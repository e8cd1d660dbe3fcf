package ppc

import (
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

// TestCorrectionRecordsSkippedWithoutAdaptiveStats: a crash image holding
// correction records reopens with the adaptive statistics layer off. Q1 is
// restored from the checkpoint, so no later Register would ever claim its
// correction records; they must count as skipped — as they do on a replica
// shipped without corrections — rather than sit in WALPending for good.
func TestCorrectionRecordsSkippedWithoutAdaptiveStats(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 80, 3)
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runDurableWorkload(t, sys, 80, 4)

	crash := crashImage(t, dir)
	recov, err := wal.Scan(filepath.Join(crash, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	corrRecs := 0
	for _, r := range recov.Records {
		if r.Kind == wal.RecordCorrection {
			corrRecs++
		}
	}
	if corrRecs == 0 {
		t.Fatal("no correction records in the crash image; test is vacuous")
	}

	sys2 := openDurable(t, crash, func(o *Options) { o.DisableAdaptiveStats = true })
	defer sys2.Close() //nolint:errcheck
	rep := sys2.LoadStateReport()
	if rep.Templates != 1 {
		t.Fatalf("checkpoint restored %d templates, want 1", rep.Templates)
	}
	if rep.WALPending != 0 {
		t.Errorf("WALPending = %d after recovery, want 0 (%d correction records in the log)", rep.WALPending, corrRecs)
	}
	if rep.WALSkipped < corrRecs {
		t.Errorf("WALSkipped = %d, want at least the %d correction records", rep.WALSkipped, corrRecs)
	}
}
