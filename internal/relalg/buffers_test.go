package relalg

import "testing"

// With every released buffer overwritten, the sharded, pipelined and
// planned shapes still reproduce their pinned census and the staged
// evaluator's bytes: no stage reads a pooled buffer after giving it
// back.
func TestPooledBuffersPoisoned(t *testing.T) {
	PoisonPool(t)
	t.Run("census", TestEvaluatorCensusPerOperator)
	t.Run("pipelined", TestPipelinedMatchesStaged)
}
