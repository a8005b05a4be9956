package relalg_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/relalg"
	"extmem/internal/tape"
	"extmem/internal/transport"
)

// With every released buffer overwritten, a sharded query whose sorts
// and scans all cross loopback TCP workers still reproduces the
// in-process run's tuples and QueryReport: shipping a snapshot to a
// worker finishes reading it before the stage releases it.
func TestTCPQueryEvaluatorPoisonedPool(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := relalg.InstanceDB(problems.GenSetNo(128, 12, rng))
	q := relalg.SymmetricDifference("R1", "R2")
	eval := func(tr *transport.TCP) (*relalg.Relation, *relalg.QueryReport) {
		t.Helper()
		ev := relalg.Evaluator{Shards: 2, RunMemoryBits: 256, Seed: 7, Report: &relalg.QueryReport{}}
		if tr != nil {
			ev.Exec, ev.ExecScan = tr.Exec(), tr.ExecScan()
		}
		m := core.NewMachineOpts(relalg.NumQueryTapes, 7, tape.Options{})
		defer m.Close()
		r, err := ev.EvalST(context.Background(), q, db, m)
		if err != nil {
			t.Fatalf("evaluation: %v", err)
		}
		return r, ev.Report
	}
	want, wantRep := eval(nil)
	tr, stop, err := transport.LocalWorkers(2)
	if err != nil {
		t.Fatalf("LocalWorkers: %v", err)
	}
	t.Cleanup(stop)
	relalg.PoisonPool(t)
	for i := 0; i < 2; i++ { // the second run reuses both pooled buffers and connections
		got, rep := eval(tr)
		if !reflect.DeepEqual(got.Tuples, want.Tuples) {
			t.Errorf("run %d: tuples differ from the in-process run", i)
		}
		if !reflect.DeepEqual(rep, wantRep) {
			t.Errorf("run %d: query census differs from the in-process run", i)
		}
	}
}
