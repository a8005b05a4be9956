package experiments

import (
	"context"
	"os"
	"sync/atomic"
	"testing"

	"extmem/internal/core"
	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/transport"
)

// TestMain routes worker-mode re-executions of this test binary into
// the shard worker loop: E18–E20 sweep the process transport, which
// self-execs os.Executable() — under `go test`, this binary.
func TestMain(m *testing.M) {
	transport.MaybeWorker()
	os.Exit(m.Run())
}

// countingTransport counts the sort and scan attempts it passes on to
// its inner transport.
type countingTransport struct {
	transport.Transport
	sorts, scans atomic.Int64
}

func (c *countingTransport) Exec() shard.ExecFunc {
	exec := c.Transport.Exec()
	return func(ctx context.Context, sh, attempt int, job shard.SortJob) ([]byte, core.Resources, error) {
		c.sorts.Add(1)
		return exec(ctx, sh, attempt, job)
	}
}

func (c *countingTransport) ExecScan() relalg.ScanExecFunc {
	exec := c.Transport.ExecScan()
	return func(ctx context.Context, sh, attempt int, job relalg.ScanJob) ([]byte, core.Resources, error) {
		c.scans.Add(1)
		return exec(ctx, sh, attempt, job)
	}
}

// The configured-shape query rows follow Config.Transport with both of
// their seams: E6's sharded evaluation, E19's configured-shard run and
// E21's configured-budget run each send operator sorts and operator
// scans over the transport, not only sorts.
func TestConfiguredQueryRowsUseTransport(t *testing.T) {
	workers, stop, err := transport.LocalWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	runners := []struct {
		id  string
		run func(Config) Result
	}{{"E6", E6RelAlg}, {"E19", E19ShardedQueries}, {"E21", E21CostPlanner}}
	for _, r := range runners {
		ct := &countingTransport{Transport: workers}
		res := r.run(Config{Seed: 5, Shards: 2, Transport: ct})
		if !res.Passed() {
			t.Fatalf("%s failed over the transport:\n%s", r.id, res.Notes)
		}
		if ct.sorts.Load() == 0 || ct.scans.Load() == 0 {
			t.Errorf("%s sent %d sort and %d scan attempts over the transport, want at least one of each",
				r.id, ct.sorts.Load(), ct.scans.Load())
		}
	}
}
