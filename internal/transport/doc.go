// Package transport executes shard attempts in worker processes and
// on TCP workers that may live on other machines — the process- and
// host-boundary rungs of the shard execution ladder, behind the same
// seams everything else uses: shard.AttemptFunc for trial fleets (the
// Fleet.Attempt that shard.LaunchRetry threads into every fleet it
// launches), shard.ExecFunc for sharded sorts, and relalg.ScanExecFunc
// for sharded operator scans. Transport is that set of three.
//
// # Shape
//
// The coordinator (Proc) spawns one worker process per shard attempt —
// by default the running executable re-executed with the hidden
// "stworker" subcommand and the EXTMEM_STWORKER environment marker —
// and speaks length-prefixed frames over the worker's pipes. Each
// direction is one gob stream of small header frames: a 4-byte
// big-endian length, then one gob value with the type descriptors the
// stream has not sent yet. A header's bulk byte fields — a sort job's
// payload, a scan job's two inputs, a workload spec, a machine job's
// output — are nil inside it and follow it as raw, length-prefixed
// data frames, written straight from the sender's slices and read into
// one slice each (frame.go) — on a serve worker, into one receive
// buffer its connection keeps from job to job. Exactly one Job goes
// down stdin (a trial-index range with its workload wire form, or a
// machine job: a shard.SortJob or relalg.ScanJob); Replies come back
// up stdout —
// per-trial trials.Result rows strictly in trial order, then a
// terminal Done whose MachineDone carries, for machine jobs, the
// output bytes and the shard machine's exact core.Resources report.
// Sort and scan jobs take one path on each side: one coordinator
// helper behind Exec and ExecScan, one worker body.
//
// A stream is as safe as the per-frame streams it replaced because it
// lives and dies with its connection — one worker process's pipes, or
// one TCP connection — and a connection outlives an attempt only when
// the attempt ended with a clean Done frame. Whatever decoder state a
// garbled, truncated or oversized frame leaves behind dies with the
// attempt that frame fails, and the retry starts a fresh stream.
//
// Trial functions are closures and cannot cross a process boundary;
// trials.Workload is their wire form. Fleet entry points whose trial
// bodies are pure functions of a few bytes of configuration annotate
// their context with a registered workload (internal/algorithms), and
// the transport's shard attempt ships it; a fleet with no annotation —
// a closure over live state, or a chaos-wrapped fleet whose strikes
// live in the coordinator's injector — transparently runs in-process.
// Randomness never travels either way: a worker re-derives every
// trial's rng from (seed, global index), which is why a shipped shard
// and a local shard produce the same rows byte for byte.
//
// # Failure is the point
//
// Worker death in any costume — nonzero exit, SIGKILL, early EOF, a
// malformed or out-of-order frame, a blown Deadline — surfaces as a
// WorkerError, and shard.RunStage gives it exactly the path an injected
// in-process panic takes: burn one attempt of the shard.RetryPolicy
// budget, back off, retry, and after exhaustion let the coordinator
// absorb the range itself (the fallback never consults the transport).
// Only the run's own cancellation ends a stage instead. Shard work is
// input-pure, so recovery moves the attempt census — Retries,
// Fallbacks, Recovered; Attempts for sorts — and never a byte of
// output. WorkerFault orders shipped inside job frames make workers
// actually stall, stream garbage, or kill themselves mid-stream, so the
// recovery contract is tested against real process death, not
// simulations of it.
//
// # Multi-host
//
// TCP carries the same frames to long-lived workers started with
// `-serve host:port` (ListenAndServe), with attempts assigned
// round-robin by shard index and a retry moving one step around the
// worker ring. A connection opens with the Hello handshake (protocol
// version + workload-registry fingerprint, typed HandshakeError on
// mismatch) and then carries one job at a time — the job with its data
// frames, the reply stream. The coordinator keeps the connections
// whose attempts read a clean Done frame idle per worker address and
// hands them to later attempts on that worker; every failure — dead
// worker, WorkerFault order, deadline, cancellation, malformed frame —
// closes its connection instead. Before reuse an idle connection is
// peeked at without waiting: one its worker closed, reset or wrote to
// while idle is dropped and redialed, costing no attempt, so the
// attempt census never depends on what was kept. Connections are
// dialed only when none is idle, so a worker never holds more than
// attempts ran on it at once. A job's header and data frames leave in
// one writev, so no frame is split into a header-only segment.
// Deadline bounds an attempt's wall clock as an absolute connection
// deadline. Every length prefix is checked against its cap before any
// allocation: the peer's Hello against 1 KiB, every later header
// against 1 MiB, a data frame against MaxFrame, and a data frame's
// buffer grows only as its bytes arrive. The serve side reads a
// connection's first job, data frames included, under its handshake
// deadline, and each later one under the same deadline from the job's
// first byte; between jobs it waits without one, and a coordinator
// closing an idle connection ends the handler quietly. A serve
// connection keeps its receive buffer across jobs, up to a bound:
// job bodies copy their bulk bytes onto tapes before the next job is
// read.
// Network death is process death: refused dial, peer reset, handshake
// mismatch and blown deadline all take the WorkerError path above.
// WorkerFault's Exit and Stall orders exercise it against real
// connections (a serve handler executes Exit by closing the
// connection), and LocalWorkers hosts loopback serve workers
// in-process for tests and experiments. A serve job lives as long as
// its connection: the handler cancels the job's context when the
// coordinator hangs up or the serve loop stops, and a Stall order
// waits on that context, so a job its coordinator gave up on does not
// hold a shutting-down worker.
//
// Workers are named by a static -workers list: nothing discovers or
// launches them.
package transport
