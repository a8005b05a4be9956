package relalg

// buffers.go pools the bytes of the sharded stages' short-lived
// copies: a tape's snapshot taken to feed one stage, and a stage's
// combined output on its way onto a tape. Each dies inside the call
// that made it, so one package pool hands the same few buffers from
// stage to stage, as the tape package's page pool hands out pages.
// A buffer goes back only after the last reader of its bytes has
// returned — the shard.RunJobs that ships a snapshot, the SwapTape
// that copies an output onto the query machine's tape. Runs handed on
// to a later stage (evalRuns, sortKeepRuns' results) never come from
// the pool.

import "sync"

var bufPool sync.Pool // of *[]byte

// poison, when non-nil, overwrites each buffer as it returns to the
// pool, so a reader that outlives the release reads garbage; tests set
// it.
var poison func([]byte)

// getBuf returns an empty buffer from the pool; it is never nil, so
// an append-style callee fills it rather than allocating its own.
func getBuf() []byte {
	if b, ok := bufPool.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	return []byte{}
}

// putBuf returns b to the pool. Nothing may read b afterwards.
func putBuf(b []byte) {
	if poison != nil {
		poison(b[:cap(b)])
	}
	bufPool.Put(&b)
}

// snapshot copies tape idx of the query machine into a pooled buffer.
func (c *evalCtx) snapshot(idx int) []byte {
	return c.m.Tape(idx).AppendContents(getBuf())
}
