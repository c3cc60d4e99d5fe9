package state

import (
	"bytes"
	"runtime"
	"testing"
)

// TestCompilerIDIsTheBuildID: on Linux the memo's compiler identity comes
// from the build ID the Go linker stamps into the executable, not from the
// random fallback, so two processes of one build agree on it (and a
// rebuilt compiler does not). The ID has the linker's slash-separated
// shape.
func TestCompilerIDIsTheBuildID(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the build ID is read from an ELF note")
	}
	id := executableBuildID()
	if len(id) == 0 || bytes.Count(id, []byte("/")) < 1 || bytes.IndexByte(id, 0) >= 0 {
		t.Fatalf("build ID %q: want the linker's slash-separated ID", id)
	}
	if CompilerID() == 0 || CompilerID() != CompilerID() {
		t.Fatal("CompilerID is zero or not stable within the process")
	}
}
