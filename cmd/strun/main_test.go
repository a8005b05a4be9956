package main

import (
	"context"
	"encoding/csv"
	"errors"
	"strconv"
	"strings"
	"testing"

	"extmem/internal/transport"
)

// Smoke: one deterministic decider end to end, agreeing with the
// reference.
func TestRunMultiset(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-algo", "multiset", "-m", "8", "-n", "6"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	for _, frag := range []string{"instance:", "verdict:  accept", "reference: accept", "resources:"} {
		if !strings.Contains(out.String(), frag) {
			t.Fatalf("output misses %q:\n%s", frag, out.String())
		}
	}
}

func TestRunExplicitInput(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-algo", "multiset", "-input", "01#10#10#01#"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "m=2") {
		t.Fatalf("explicit instance not decoded:\n%s", out.String())
	}
}

// The fingerprint fleet: rows in every format, byte-identical across
// worker counts, with the summary on stderr.
func TestFingerprintFleetFormats(t *testing.T) {
	fleet := func(format, parallel string) (string, string) {
		var out, errOut strings.Builder
		args := []string{"-algo", "fingerprint", "-m", "8", "-n", "8", "-yes=false",
			"-trials", "16", "-parallel", parallel, "-format", format, "-seed", "5"}
		if code := run(context.Background(), args, &out, &errOut); code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
		}
		return out.String(), errOut.String()
	}
	for _, format := range []string{"text", "json", "csv"} {
		seq, _ := fleet(format, "1")
		par, errOut := fleet(format, "8")
		if seq != par {
			t.Fatalf("%s rows differ across -parallel:\n--- 1 ---\n%s\n--- 8 ---\n%s", format, seq, par)
		}
		if !strings.Contains(errOut, "fleet: ") || !strings.Contains(errOut, "CI") {
			t.Fatalf("no summary on stderr:\n%s", errOut)
		}
		wantLines := 16
		if format == "csv" {
			wantLines = 17 // header
		}
		if got := strings.Count(par, "\n"); got != wantLines {
			t.Fatalf("%s: %d lines, want %d:\n%s", format, got, wantLines, par)
		}
	}
	// CSV parses and every trial index appears in order.
	out, _ := fleet("csv", "4")
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs[1:] {
		if rec[0] != strconv.Itoa(i) {
			t.Fatalf("row %d has trial %s (rows must stream in trial order)", i, rec[0])
		}
	}
}

// The sharded query mode: the symmetric-difference verdict agrees
// with the reference on yes- and no-instances, and stdout is
// byte-identical at every -shards value (the census on stderr is the
// only place the execution shape may show).
func TestRunRelAlgShardInvariant(t *testing.T) {
	for _, yes := range []string{"true", "false"} {
		runWith := func(shards string) (string, string) {
			var out, errOut strings.Builder
			args := []string{"-algo", "relalg", "-m", "32", "-n", "10", "-seed", "9",
				"-yes=" + yes, "-shards", shards}
			if code := run(context.Background(), args, &out, &errOut); code != 0 {
				t.Fatalf("yes=%s shards=%s: exit %d, stderr:\n%s", yes, shards, code, errOut.String())
			}
			return out.String(), errOut.String()
		}
		ref, refErr := runWith("1")
		want := "verdict:  accept"
		if yes == "false" {
			want = "verdict:  reject"
		}
		for _, frag := range []string{"instance:", "query:", want, "reference:"} {
			if !strings.Contains(ref, frag) {
				t.Fatalf("yes=%s: output misses %q:\n%s", yes, frag, ref)
			}
		}
		if !strings.Contains(refErr, "operator sorts") {
			t.Fatalf("yes=%s: no census on stderr:\n%s", yes, refErr)
		}
		for _, shards := range []string{"2", "4"} {
			if got, _ := runWith(shards); got != ref {
				t.Fatalf("yes=%s: stdout differs at -shards %s:\n--- 1 ---\n%s\n--- %s ---\n%s",
					yes, shards, ref, shards, got)
			}
		}
	}
}

// The process transport reproduces the in-process fleet rows and the
// sharded query output byte for byte — -transport proc is an execution
// choice, never an observable one.
func TestTransportProcInvariant(t *testing.T) {
	runWith := func(args ...string) (string, string) {
		var out, errOut strings.Builder
		if code := run(context.Background(), args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, errOut.String())
		}
		return out.String(), errOut.String()
	}
	fleet := []string{"-algo", "fingerprint", "-m", "8", "-n", "8", "-yes=false",
		"-trials", "16", "-seed", "5", "-shards", "2"}
	ref, _ := runWith(fleet...)
	got, _ := runWith(append(fleet, "-transport", "proc")...)
	if got != ref {
		t.Fatalf("fleet rows differ under -transport proc:\n--- inproc ---\n%s\n--- proc ---\n%s", ref, got)
	}
	query := []string{"-algo", "relalg", "-m", "32", "-n", "10", "-seed", "9", "-shards", "2"}
	qref, qrefErr := runWith(query...)
	qgot, qgotErr := runWith(append(query, "-transport", "proc")...)
	if qgot != qref {
		t.Fatalf("relalg stdout differs under -transport proc:\n--- inproc ---\n%s\n--- proc ---\n%s", qref, qgot)
	}
	if qgotErr != qrefErr {
		t.Fatalf("relalg census differs under -transport proc:\n--- inproc ---\n%s\n--- proc ---\n%s", qrefErr, qgotErr)
	}
}

// The TCP transport reproduces the in-process fleet rows and the
// sharded query output byte for byte, with loopback workers standing
// in for remote hosts — -transport tcp is an execution choice, never
// an observable one.
func TestTransportTCPInvariant(t *testing.T) {
	tr, stop, err := transport.LocalWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	workers := strings.Join(tr.Workers, ",")
	runWith := func(args ...string) (string, string) {
		var out, errOut strings.Builder
		if code := run(context.Background(), args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, errOut.String())
		}
		return out.String(), errOut.String()
	}
	fleet := []string{"-algo", "fingerprint", "-m", "8", "-n", "8", "-yes=false",
		"-trials", "16", "-seed", "5", "-shards", "2"}
	ref, _ := runWith(fleet...)
	got, _ := runWith(append(fleet, "-transport", "tcp", "-workers", workers)...)
	if got != ref {
		t.Fatalf("fleet rows differ under -transport tcp:\n--- inproc ---\n%s\n--- tcp ---\n%s", ref, got)
	}
	query := []string{"-algo", "relalg", "-m", "32", "-n", "10", "-seed", "9", "-shards", "2"}
	qref, qrefErr := runWith(query...)
	qgot, qgotErr := runWith(append(query, "-transport", "tcp", "-workers", workers)...)
	if qgot != qref {
		t.Fatalf("relalg stdout differs under -transport tcp:\n--- inproc ---\n%s\n--- tcp ---\n%s", qref, qgot)
	}
	if qgotErr != qrefErr {
		t.Fatalf("relalg census differs under -transport tcp:\n--- inproc ---\n%s\n--- tcp ---\n%s", qrefErr, qgotErr)
	}
}

// The planned query: -budget hands shape selection to the cost-based
// planner, and stdout still cannot move — byte-identical to every
// fixed -shards value, under both transports.
func TestRunRelAlgBudgetInvariant(t *testing.T) {
	runWith := func(extra ...string) string {
		var out, errOut strings.Builder
		args := append([]string{"-algo", "relalg", "-m", "32", "-n", "10", "-seed", "9"}, extra...)
		if code := run(context.Background(), args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", extra, code, errOut.String())
		}
		return out.String()
	}
	ref := runWith("-shards", "2")
	for _, extra := range [][]string{
		{"-budget", "256"},
		{"-budget", "16384", "-budget-tapes", "12", "-budget-shards", "8"},
		{"-budget", "256", "-transport", "proc"},
	} {
		if got := runWith(extra...); got != ref {
			t.Fatalf("stdout differs under %v:\n--- fixed ---\n%s\n--- planned ---\n%s", extra, ref, got)
		}
	}
}

func TestFleetRejectsOtherAlgos(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-algo", "sort", "-trials", "5"}, &out, &errOut); code != 1 {
		t.Fatalf("fleet on sort: exit %d", code)
	}
}

// Malformed flags are rejected up front with a one-line error and
// exit 2; only errors past validation (bad instance data) exit 1.
func TestFlagAndAlgoErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		frag string // required stderr fragment; "" skips the check
	}{
		{"bad flag", []string{"-nonsense"}, 2, ""},
		{"unknown algo", []string{"-algo", "bogus"}, 2, `unknown -algo "bogus"`},
		{"unknown format", []string{"-format", "xml"}, 2, `unknown -format "xml"`},
		{"zero trials", []string{"-trials", "0"}, 2, "-trials must be >= 1"},
		{"negative parallel", []string{"-parallel", "-3"}, 2, "-parallel must be >= 1"},
		{"zero shards", []string{"-shards", "0"}, 2, "-shards must be >= 1"},
		{"bad transport", []string{"-transport", "smoke-signals"}, 2, `unknown -transport "smoke-signals"`},
		{"proc in single-run mode", []string{"-algo", "multiset", "-transport", "proc"}, 2, "-transport proc applies to fleet mode"},
		{"tcp in single-run mode", []string{"-algo", "multiset", "-transport", "tcp"}, 2, "-transport tcp applies to fleet mode"},
		{"tcp without workers", []string{"-algo", "relalg", "-transport", "tcp"}, 2, "-transport tcp requires -workers"},
		{"workers without tcp", []string{"-workers", "127.0.0.1:9051"}, 2, "-workers requires -transport tcp"},
		{"workers with proc", []string{"-algo", "relalg", "-transport", "proc", "-workers", "127.0.0.1:9051"}, 2, "-workers requires -transport tcp"},
		{"bad worker address", []string{"-algo", "relalg", "-transport", "tcp", "-workers", "localhost"}, 2, "bad worker address"},
		{"serve with transport", []string{"-serve", "127.0.0.1:0", "-transport", "proc"}, 2, "-serve conflicts"},
		{"serve with workers", []string{"-serve", "127.0.0.1:0", "-workers", "127.0.0.1:9051"}, 2, "-serve conflicts"},
		{"mmap storage", []string{"-storage", "mmap"}, 2, `unknown storage "mmap"`},
		{"spill threshold without storage", []string{"-spill-threshold", "64"}, 2, "-spill-threshold requires -storage file"},
		{"negative spill threshold", []string{"-storage", "file", "-spill-threshold", "-1"}, 2, "negative SpillThreshold"},
		{"zero budget", []string{"-algo", "relalg", "-budget", "0"}, 2, "-budget must be a positive finite bit count"},
		{"negative budget", []string{"-algo", "relalg", "-budget", "-256"}, 2, "-budget must be a positive finite bit count"},
		{"NaN budget", []string{"-algo", "relalg", "-budget", "NaN"}, 2, "-budget must be a positive finite bit count"},
		{"infinite budget", []string{"-algo", "relalg", "-budget", "+Inf"}, 2, "-budget must be a positive finite bit count"},
		{"budget on wrong algo", []string{"-algo", "multiset", "-budget", "256"}, 2, "-budget applies to -algo relalg"},
		{"budget tapes without budget", []string{"-algo", "relalg", "-budget-tapes", "8"}, 2, "require -budget"},
		{"too few budget tapes", []string{"-algo", "relalg", "-budget", "256", "-budget-tapes", "3"}, 2, "cannot hold a sort"},
		{"zero budget shards", []string{"-algo", "relalg", "-budget", "256", "-budget-shards", "0"}, 2, "shard ceiling"},
		{"infeasible set params", []string{"-algo", "set", "-m", "2048", "-n", "8"}, 1, "raise -n or lower -m"},
		{"bad input", []string{"-input", "not-an-instance"}, 1, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run(context.Background(), c.args, &out, &errOut); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, errOut.String())
			}
			if c.frag != "" && !strings.Contains(errOut.String(), c.frag) {
				t.Fatalf("stderr misses %q:\n%s", c.frag, errOut.String())
			}
		})
	}
}

// errAfter fails every write past a byte budget — the stand-in for a
// consumer that dies mid-stream.
type errAfter struct {
	n int
}

var errSink = errors.New("sink failed")

func (w *errAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errSink
	}
	w.n -= len(p)
	return len(p), nil
}

// A mid-stream encoder error aborts the fleet: strun exits 1 with the
// sink's error instead of hanging or emitting further rows.
func TestFleetEncoderErrorAborts(t *testing.T) {
	var errOut strings.Builder
	out := &errAfter{n: 40} // a few rows, then the sink dies
	args := []string{"-algo", "fingerprint", "-m", "8", "-n", "8", "-yes=false",
		"-trials", "64", "-parallel", "4", "-shards", "2", "-seed", "5"}
	if code := run(context.Background(), args, out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "sink failed") {
		t.Fatalf("encoder error not surfaced:\n%s", errOut.String())
	}
}

// A cancelled run context (the SIGINT/SIGTERM path) drains the fleet,
// flushes the partial prefix and exits 130 with an honest footer.
func TestFleetInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut strings.Builder
	args := []string{"-algo", "fingerprint", "-m", "8", "-n", "8", "-yes=false",
		"-trials", "32", "-seed", "5"}
	if code := run(ctx, args, &out, &errOut); code != 130 {
		t.Fatalf("exit %d, want 130; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "interrupted — partial results:") {
		t.Fatalf("no partial-results footer on stderr:\n%s", errOut.String())
	}
	if code := run(ctx, []string{"-algo", "relalg", "-m", "16", "-n", "10"}, &out, &errOut); code != 130 {
		t.Fatalf("relalg under cancelled ctx: exit %d, want 130; stderr:\n%s", code, errOut.String())
	}
}
