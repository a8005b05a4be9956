package core

import (
	"math/rand"
	"strings"
	"testing"
)

func TestNewMachineTapes(t *testing.T) {
	m := NewMachine(3, 1)
	if m.NumTapes() != 3 {
		t.Fatalf("NumTapes = %d, want 3", m.NumTapes())
	}
	for i := 0; i < 3; i++ {
		if m.Tape(i) == nil {
			t.Fatalf("Tape(%d) is nil", i)
		}
	}
}

func TestNewMachinePanicsOnZeroTapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMachine(0) did not panic")
		}
	}()
	NewMachine(0, 1)
}

func TestTapePanicsOutOfRange(t *testing.T) {
	m := NewMachine(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Tape(5) did not panic")
		}
	}()
	m.Tape(5)
}

func TestSetInput(t *testing.T) {
	m := NewMachine(1, 1)
	m.SetInput([]byte("abc"))
	got, err := m.Tape(0).ScanBytes()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("input = %q, want %q", got, "abc")
	}
}

func TestResourcesAggregation(t *testing.T) {
	m := NewMachine(2, 1)
	m.SetInput([]byte("abcd"))
	if _, err := m.Tape(0).ScanBytes(); err != nil {
		t.Fatal(err)
	}
	if err := m.Tape(0).Rewind(); err != nil {
		t.Fatal(err)
	}
	if err := m.Tape(1).WriteBlock([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	if err := m.Tape(1).Rewind(); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem().Set("v", 12); err != nil {
		t.Fatal(err)
	}
	res := m.Resources()
	if res.Reversals != 2 {
		t.Fatalf("Reversals = %d, want 2", res.Reversals)
	}
	if res.Scans() != 3 {
		t.Fatalf("Scans = %d, want 3", res.Scans())
	}
	if res.PeakMemoryBits != 12 {
		t.Fatalf("PeakMemoryBits = %d, want 12", res.PeakMemoryBits)
	}
	if res.Tapes != 2 {
		t.Fatalf("Tapes = %d, want 2", res.Tapes)
	}
	if len(res.PerTape) != 2 {
		t.Fatalf("PerTape length = %d, want 2", len(res.PerTape))
	}
}

func TestRandDeterministicPerSeed(t *testing.T) {
	a := NewMachine(1, 42).Rand().Int63()
	b := NewMachine(1, 42).Rand().Int63()
	if a != b {
		t.Fatal("same seed produced different streams")
	}
	c := NewMachine(1, 43).Rand().Int63()
	if a == c {
		t.Fatal("different seeds produced identical first value (unlikely)")
	}
}

// The lazily seeded source draws the stream an eagerly seeded one
// would, and a later Rand call returns the same source mid-stream.
func TestRandMatchesSource(t *testing.T) {
	for seed := int64(-50); seed < 450; seed += 3 {
		m := NewMachine(1, seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			if got, w := m.Rand().Int63(), want.Int63(); got != w {
				t.Fatalf("seed %d draw %d: %d, want %d", seed, i, got, w)
			}
		}
		if got, w := m.Rand().Int63n(1000003), want.Int63n(1000003); got != w {
			t.Fatalf("seed %d: Int63n %d, want %d", seed, got, w)
		}
	}
}

// A machine that never draws a coin allocates no source: seeding one
// (two allocations, 4.9 KB) happens on the first Rand call.
func TestRandSeedsOnFirstDraw(t *testing.T) {
	built := testing.AllocsPerRun(100, func() { NewMachine(1, 7) })
	drawn := testing.AllocsPerRun(100, func() { NewMachine(1, 7).Rand() })
	if drawn-built < 2 {
		t.Errorf("NewMachine allocates %.0f times and NewMachine+Rand %.0f: the source is built before any draw",
			built, drawn)
	}
}

func TestBoundAdmits(t *testing.T) {
	b := Bound{Name: "ST(3, 10, 2)", R: ConstR(3), S: ConstS(10), T: 2}
	ok := Resources{Reversals: 2, PeakMemoryBits: 10, Tapes: 2}
	if err := b.Admits(ok, 100); err != nil {
		t.Fatalf("Admits(ok) = %v", err)
	}
	tooManyScans := Resources{Reversals: 3, PeakMemoryBits: 1, Tapes: 1}
	if err := b.Admits(tooManyScans, 100); err == nil || !strings.Contains(err.Error(), "scans") {
		t.Fatalf("want scans violation, got %v", err)
	}
	tooMuchMemory := Resources{Reversals: 0, PeakMemoryBits: 11, Tapes: 1}
	if err := b.Admits(tooMuchMemory, 100); err == nil || !strings.Contains(err.Error(), "bits") {
		t.Fatalf("want memory violation, got %v", err)
	}
	tooManyTapes := Resources{Reversals: 0, PeakMemoryBits: 1, Tapes: 3}
	if err := b.Admits(tooManyTapes, 100); err == nil || !strings.Contains(err.Error(), "tapes") {
		t.Fatalf("want tape violation, got %v", err)
	}
}

func TestLogR(t *testing.T) {
	r := LogR(1)
	if got := r(1024); got != 10 {
		t.Fatalf("LogR(1)(1024) = %d, want 10", got)
	}
	if got := r(1); got != 1 {
		t.Fatalf("LogR(1)(1) = %d, want 1", got)
	}
	r2 := LogR(2)
	if got := r2(1024); got != 20 {
		t.Fatalf("LogR(2)(1024) = %d, want 20", got)
	}
}

func TestLogS(t *testing.T) {
	s := LogS(3)
	if got := s(256); got != 24 {
		t.Fatalf("LogS(3)(256) = %d, want 24", got)
	}
	if got := s(1); got != 3 {
		t.Fatalf("LogS(3)(1) = %d, want 3", got)
	}
}

func TestFourthRootOverLogS(t *testing.T) {
	s := FourthRootOverLogS(1)
	// N = 2^16: N^(1/4) = 16, log2 N = 16, so s = 1.
	if got := s(1 << 16); got != 1 {
		t.Fatalf("s(2^16) = %d, want 1", got)
	}
	// N = 2^20: N^(1/4) = 32, log2 N = 20, ceil(32/20) = 2.
	if got := s(1 << 20); got != 2 {
		t.Fatalf("s(2^20) = %d, want 2", got)
	}
	if got := s(1); got != 1 {
		t.Fatalf("s(1) = %d, want 1", got)
	}
}

func TestVerdictString(t *testing.T) {
	cases := map[Verdict]string{Accept: "accept", Reject: "reject", DontKnow: "don't know"}
	for v, want := range cases {
		if v.String() != want {
			t.Fatalf("Verdict(%d).String() = %q, want %q", v, v.String(), want)
		}
	}
}

func TestResourcesString(t *testing.T) {
	res := Resources{Reversals: 1, PeakMemoryBits: 8, Tapes: 2, Steps: 10}
	s := res.String()
	if !strings.Contains(s, "r=2 scans") || !strings.Contains(s, "s=8 bits") {
		t.Fatalf("unexpected format: %q", s)
	}
}
