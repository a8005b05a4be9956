package relalg

import "testing"

// PoisonPool makes every buffer returned to the package pool read 0xA5
// for the rest of t, so a stage that still reads a buffer it released
// reads garbage and moves a byte or a census count.
func PoisonPool(t testing.TB) {
	poison = func(b []byte) {
		for i := range b {
			b[i] = 0xA5
		}
	}
	t.Cleanup(func() { poison = nil })
}
