package relalg

// scan_job.go is the wire form of one shard-local operator scan — the
// scan-side twin of shard.SortJob. A ScanJob is self-contained and
// gob-encodable: the shard's contiguous left run-range payload, the
// broadcast right side, the shard machine's seed and tape options.
// Execute is the body every in-process scan attempt and the
// coordinator's fallback run, so a worker process (internal/transport)
// executing the job produces the same bytes and the same (r, s, t)
// census the coordinator's own shard machine would — which is what lets
// planned queries honor `-transport` end to end instead of silently
// dropping their anti-merge and product scans back in-process.

import (
	"context"
	"fmt"

	"extmem/internal/core"
	"extmem/internal/tape"
)

// ScanJob is one shard's operator-scan assignment, self-contained
// enough to cross a process or network boundary: Op selects the scan
// body (ScanOpDiff or ScanOpProduct), Left is the shard's contiguous
// left run-range payload, Right the broadcast right side, Seed the
// shard machine's coin seed (already shard-derived by the
// coordinator), and Tape the storage options of the shard machine.
// Note tape.Options.Wrap is a function and does not travel; scan
// shards never set it.
type ScanJob struct {
	Op    string
	Left  []byte
	Right []byte
	Seed  int64
	Tape  tape.Options
}

// Execute runs the scan job on a fresh shard-local machine and returns
// the shard's output bytes and the machine's exact resource report.
// The output is a pure function of the job — recovery and transport
// cannot move a byte.
func (j ScanJob) Execute() ([]byte, core.Resources, error) {
	switch j.Op {
	case ScanOpDiff:
		m := core.NewMachineOpts(3, j.Seed, j.Tape)
		defer m.Close()
		m.SetInput(j.Left)
		m.SetTape(1, j.Right)
		if err := antiMergeTapes(m, 0, 1, 2); err != nil {
			return nil, core.Resources{}, err
		}
		return m.Tape(2).Contents(), m.Resources(), nil
	case ScanOpProduct:
		m := core.NewMachineOpts(5, j.Seed, j.Tape)
		defer m.Close()
		m.SetInput(j.Left)
		m.SetTape(1, j.Right)
		if err := productTapes(m, 0, 1, 2, 3, 4); err != nil {
			return nil, core.Resources{}, err
		}
		return m.Tape(2).Contents(), m.Resources(), nil
	}
	return nil, core.Resources{}, fmt.Errorf("relalg: scan job has unknown op %q", j.Op)
}

// ScanExecFunc executes one shard-local scan attempt — the scan-side
// twin of shard.ExecFunc, and the seam internal/transport implements
// to run scan shards in worker processes or on remote machines. shard
// and attempt identify the attempt for deterministic fault injection;
// implementations must return either job.Execute()'s exact results or
// an error, which burns one attempt of shard.RunStage's retry budget
// unless the run's context was cancelled.
type ScanExecFunc func(ctx context.Context, shard, attempt int, job ScanJob) ([]byte, core.Resources, error)
