// Package cliflags declares, validates and resolves the execution
// flags that stbench and strun share, and runs their -serve worker
// loop. None of these flags changes a byte of either command's
// stdout: they choose where and how the work runs, never what it
// computes.
//
//	[-parallel N] [-shards N]
//	[-transport inproc|proc|tcp] [-workers host:port,...]
//	[-budget BITS] [-budget-tapes N] [-budget-shards N]
//	[-storage mem|file] [-spill-dir DIR] [-spill-threshold N]
//	-serve host:port
//
// -parallel is the worker goroutines per shard, -shards the shard
// machines of every fleet and operator stage (internal/shard).
//
// -storage selects where tape cells live (internal/tape backends): mem
// is the in-RAM default, file keeps cells in unlinked temp files. Like
// -shards it is pure execution shape — the backend may move the bytes'
// home, never a count. -spill-dir places the temp files (default: the
// system temp directory); they are unlinked at creation, so no spill
// file survives any exit, SIGINT included. -spill-threshold keeps a
// file tape in RAM until it first exceeds that many cells — small
// scratch tapes never touch the disk. Both spill flags require
// -storage file.
//
// -budget hands the run a cost-based planner envelope (internal/plan):
// BITS of run-formation memory, -budget-tapes tapes and up to
// -budget-shards shard machines per operator stage. The planner picks
// each stage's execution shape inside that envelope, with the
// merge-free pipelined handoff between stages.
//
// -transport proc runs shard attempts in worker processes: the command
// re-executes itself under the hidden stworker subcommand, ships each
// trial-range, sort or scan assignment over the worker's stdin as
// length-prefixed gob frames, and streams the replies back over stdout
// (internal/transport). Trial rows and sorted ranges are pure
// functions of (seed, index), so a dead worker takes the same retry →
// fallback path as an injected panic. Fleets whose trial bodies have
// no wire form (and chaos-wrapped fleets, whose strikes live in the
// coordinator's injector) keep running in-process.
//
// -transport tcp ships the same frames over TCP to long-lived workers
// instead of spawned processes: -workers names them (host:port,...,
// required, and mutual: -workers requires -transport tcp), shard
// attempts are assigned round-robin by shard index, and a retry moves
// to the next worker in the ring. Each connection opens with a
// handshake carrying the frame-protocol version and the
// workload-registry fingerprint, so a mismatched build is a typed
// error before any job ships. Network death is process death — a
// refused dial, a dropped connection or a stall past the attempt
// deadline takes the same retry → fallback path. Start a worker with
// `stbench -serve host:port` or `strun -serve host:port` (Ctrl-C stops
// it); the equivalent hidden form is `stbench stworker -listen
// host:port`. -serve conflicts with -transport and -workers, which
// describe the coordinator's side of the wire, and every other flag is
// ignored: a worker host runs nothing but the serve loop.
package cliflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"runtime"
	"time"

	"extmem/internal/plan"
	"extmem/internal/tape"
	"extmem/internal/transport"
)

// Flags are the shared execution flags of one command line. Parallel
// and Shards are read as parsed; Transport, Tape and Budget are set by
// Resolve.
type Flags struct {
	Parallel int
	Shards   int

	Transport transport.Transport // nil: shards run in-process
	Tape      tape.Options        // every machine's tape storage
	Budget    *plan.Budget        // nil: no -budget, fixed shapes

	fs                        *flag.FlagSet
	transport, workers, serve string
	budget                    float64
	budgetTapes, budgetShards int
	storage, spillDir         string
	spillThreshold            int
}

// Register declares the shared flags on fs. Diagnostics and the
// workers' stderr go to fs.Output(), and fs.Name() prefixes the
// messages Serve prints.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.IntVar(&f.Parallel, "parallel", runtime.GOMAXPROCS(0), "worker goroutines per shard (never changes stdout)")
	fs.IntVar(&f.Shards, "shards", 1, "shards of every trial fleet and operator stage, each with its own worker pool or machine (never changes stdout)")
	fs.StringVar(&f.transport, "transport", "inproc", "shard transport: inproc (shard goroutines), proc (worker processes) or tcp (the -workers TCP workers); never changes stdout")
	fs.StringVar(&f.workers, "workers", "", "comma-separated TCP worker addresses host:port,... (requires -transport tcp)")
	fs.StringVar(&f.serve, "serve", "", "serve shard jobs over TCP on this host:port instead of running (conflicts with -transport and -workers)")
	fs.Float64Var(&f.budget, "budget", 0, "cost-based planner envelope: run-formation memory in bits (never changes stdout)")
	fs.IntVar(&f.budgetTapes, "budget-tapes", 6, "planner envelope: tapes per shard machine (requires -budget)")
	fs.IntVar(&f.budgetShards, "budget-shards", 4, "planner envelope: shard-fleet ceiling (requires -budget)")
	fs.StringVar(&f.storage, "storage", "mem", "tape storage backend: mem or file (never changes stdout)")
	fs.StringVar(&f.spillDir, "spill-dir", "", "directory for file tape spill files (requires -storage file; default: system temp dir)")
	fs.IntVar(&f.spillThreshold, "spill-threshold", 0, "cells a file tape holds in RAM before spilling to its file (requires -storage file; 0 = spill from the start)")
	return f
}

// set reports whether the command line gave the named flag.
func (f *Flags) set(name string) bool {
	found := false
	f.fs.Visit(func(fl *flag.Flag) { found = found || fl.Name == name })
	return found
}

// TransportName is -transport as given, before Resolve has checked it.
func (f *Flags) TransportName() string { return f.transport }

// Serve runs the -serve worker loop until ctx is cancelled when the
// command line asked for it, and reports whether it did together with
// the command's exit code: 2 when -serve comes with -transport or
// -workers, 1 when the listener fails.
func (f *Flags) Serve(ctx context.Context) (int, bool) {
	if !f.set("serve") {
		return 0, false
	}
	stderr := f.fs.Output()
	if f.set("transport") || f.set("workers") {
		fmt.Fprintf(stderr, "%s: -serve conflicts with -transport and -workers\n", f.fs.Name())
		return 2, true
	}
	if err := transport.ListenAndServe(ctx, f.serve, stderr); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", f.fs.Name(), err)
		return 1, true
	}
	return 0, true
}

// Resolve validates the shared flags and resolves Transport, Tape and
// Budget. A non-nil error is a flag error (exit 2); when a command line
// has several, the first in this order is reported: the shard shape,
// the transport and its workers, the budget companions, the storage
// flags, the budget itself.
func (f *Flags) Resolve() error {
	if f.Parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1 (got %d)", f.Parallel)
	}
	if f.Shards < 1 {
		return fmt.Errorf("-shards must be >= 1 (got %d)", f.Shards)
	}
	switch f.transport {
	case "inproc", "proc", "tcp":
	default:
		return fmt.Errorf("unknown -transport %q (want inproc, proc or tcp)", f.transport)
	}
	if f.transport == "tcp" && !f.set("workers") {
		return errors.New("-transport tcp requires -workers")
	}
	if f.set("workers") && f.transport != "tcp" {
		return errors.New("-workers requires -transport tcp")
	}
	switch f.transport {
	case "proc":
		f.Transport = &transport.Proc{Stderr: f.fs.Output()}
	case "tcp":
		addrs, err := transport.ParseWorkers(f.workers)
		if err != nil {
			return err
		}
		f.Transport = &transport.TCP{Workers: addrs, DialTimeout: 5 * time.Second}
	}
	if !f.set("budget") && (f.set("budget-tapes") || f.set("budget-shards")) {
		return errors.New("-budget-tapes and -budget-shards require -budget")
	}
	storage, err := tape.ParseStorage(f.storage)
	if err != nil {
		return err
	}
	for _, name := range []string{"spill-dir", "spill-threshold"} {
		if f.set(name) && storage == tape.Mem {
			return fmt.Errorf("-%s requires -storage file", name)
		}
	}
	f.Tape = tape.Options{Storage: storage, SpillDir: f.spillDir, SpillThreshold: f.spillThreshold}
	if err := f.Tape.Validate(); err != nil {
		return err
	}
	if !f.set("budget") {
		return nil
	}
	// The memory bound arrives as a float so NaN can be rejected by
	// name: the negated form catches it (NaN fails every ordered
	// comparison and would sail through `bits <= 0`), alongside zero,
	// negatives and infinities.
	if !(f.budget > 0) || math.IsInf(f.budget, 0) {
		return fmt.Errorf("-budget must be a positive finite bit count (got %g)", f.budget)
	}
	b := plan.Budget{MemoryBits: int64(f.budget), Tapes: f.budgetTapes, MaxShards: f.budgetShards}
	if err := b.Validate(); err != nil {
		return err
	}
	f.Budget = &b
	return nil
}
