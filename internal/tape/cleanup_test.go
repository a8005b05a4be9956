package tape

import (
	"os"
	"testing"
)

// TestSpillDirStaysEmpty enforces the unlink-on-create temp-file
// hygiene of the file backend: the spill file is removed from the
// directory the moment it is created (the open descriptor keeps the
// inode alive), so the spill directory holds no entries even while
// tapes are live — which is exactly why a SIGINT or SIGKILL at any
// point, Close or no Close, leaves nothing behind for the kernel has
// already reclaimed the unlinked inode.
func TestSpillDirStaysEmpty(t *testing.T) {
	for _, st := range []Storage{File} {
		t.Run(string(st), func(t *testing.T) {
			dir := t.TempDir()
			tp := NewWith("spill", Options{Storage: st, SpillDir: dir})
			if err := tp.WriteBlock(make([]byte, 256<<10)); err != nil { // past any page boundary
				t.Fatal(err)
			}
			assertEmptyDir(t, dir, "while the tape is live")

			// Simulated unclean death: drop the tape without Close. The
			// finalizer-free contract still holds — the directory never
			// had an entry to leak.
			tp = nil
			_ = tp
			assertEmptyDir(t, dir, "after abandoning the tape un-Closed")

			tp2 := NewWith("spill2", Options{Storage: st, SpillDir: dir, SpillThreshold: 64})
			if err := tp2.WriteBlock(make([]byte, 4096)); err != nil { // crosses the threshold: migrates
				t.Fatal(err)
			}
			if tp2.StorageKind() != st {
				t.Fatalf("tape did not spill: backend is %v", tp2.StorageKind())
			}
			assertEmptyDir(t, dir, "after spill migration")
			if err := tp2.Close(); err != nil {
				t.Fatal(err)
			}
			assertEmptyDir(t, dir, "after Close")
		})
	}
}

func assertEmptyDir(t *testing.T, dir, when string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("spill dir not empty %s: %v", when, names)
	}
}
