package buildsys

import (
	"os"
	"testing"
	"time"
)

// TestMain runs the package's tests with memoFlushInterval 0: a resident
// builder writes its recompiled units' memo files at the end of every
// build, so a chaos walk sees the same calls however fast the machine
// builds. TestResidentMemoFilesLag holds the interval itself.
func TestMain(m *testing.M) {
	memoFlushInterval = 0
	os.Exit(m.Run())
}

// SetMemoFlushInterval sets memoFlushInterval until the returned function
// is called. A test that calls it must not run in parallel.
func SetMemoFlushInterval(d time.Duration) (restore func()) {
	old := memoFlushInterval
	memoFlushInterval = d
	return func() { memoFlushInterval = old }
}
