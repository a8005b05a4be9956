package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"extmem/internal/shard"
	"extmem/internal/trials"
)

// FuzzTransportFrame feeds arbitrary bytes to the frame decoder: it
// must reject garbage with an error — oversized lengths, truncated
// payloads, non-gob bodies — and never panic. The coordinator reads
// these frames from worker processes it does not trust to die cleanly,
// so the decoder is a hard boundary.
func FuzzTransportFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	var valid bytes.Buffer
	if err := writeFrame(&valid, Reply{Row: &trials.Result{Trial: 1}}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(append(valid.Bytes(), valid.Bytes()[:3]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 4; i++ {
			var rep Reply
			if err := readFrame(r, &rep); err != nil {
				return
			}
		}
	})
}

// The decoder refuses a length prefix beyond MaxFrame outright,
// without attempting the allocation.
func TestReadFrameRejectsOversized(t *testing.T) {
	var b bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	b.Write(hdr[:])
	var rep Reply
	if err := readFrame(&b, &rep); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// writeFrame and readFrame round-trip every frame type on the wire.
func TestFrameRoundTrip(t *testing.T) {
	var b bytes.Buffer
	in := Reply{Row: &trials.Result{Trial: 2, Accept: true}}
	if err := writeFrame(&b, in); err != nil {
		t.Fatal(err)
	}
	var out Reply
	if err := readFrame(&b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Row == nil || *out.Row != *in.Row {
		t.Fatalf("round-trip Reply row = %+v, want %+v", out.Row, in.Row)
	}
}

// Frames decoded back to back are independent: gob copies every
// decoded field out of the buffer it reads, so a payload decoded from
// one frame survives the decoding of the next frames unchanged, and a
// reader may reuse its frame buffer.
func TestDecodedFramesDoNotAlias(t *testing.T) {
	payload := bytes.Repeat([]byte("0110#"), 8192)
	out := bytes.Repeat([]byte("1001#"), 8192)
	var wire bytes.Buffer
	for _, v := range []any{
		Job{Sort: &shard.SortJob{Payload: payload, FanIn: 4}},
		Reply{Done: &Done{Machine: &MachineDone{Out: out}}},
		Job{Sort: &shard.SortJob{Payload: bytes.Repeat([]byte{'x'}, len(payload)), FanIn: 2}},
		Reply{Done: &Done{Machine: &MachineDone{Out: bytes.Repeat([]byte{'y'}, len(out))}}},
	} {
		if err := writeFrame(&wire, v); err != nil {
			t.Fatal(err)
		}
	}
	var job, job2 Job
	var rep, rep2 Reply
	for _, v := range []any{&job, &rep, &job2, &rep2} {
		if err := readFrame(&wire, v); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(job.Sort.Payload, payload) {
		t.Error("the first SortJob.Payload changed when later frames were read")
	}
	if !bytes.Equal(rep.Done.Machine.Out, out) {
		t.Error("the first MachineDone.Out changed when later frames were read")
	}
	if job2.Sort.FanIn != 2 || !bytes.Equal(job2.Sort.Payload, bytes.Repeat([]byte{'x'}, len(payload))) ||
		!bytes.Equal(rep2.Done.Machine.Out, bytes.Repeat([]byte{'y'}, len(out))) {
		t.Error("the second pair of frames decoded wrong")
	}
}
