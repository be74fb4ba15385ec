package transport

import (
	"bytes"
	"io"
	"testing"

	"ptm/internal/central"
	"ptm/internal/record"
)

// FuzzReadFrame: frame parsing must never panic or over-allocate on
// hostile streams, and accepted frames must round-trip.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgUpload, []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{1, 0, 0, 0, 2, 0xaa})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, payload); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("accepted frame does not round-trip")
		}
	})
}

// FuzzQueryDecoders: all request decoders must tolerate arbitrary
// payloads.
func FuzzQueryDecoders(f *testing.F) {
	pq, err := PointQuery{Loc: 5, Periods: []record.PeriodID{1, 2}}.encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pq)
	p2p, err := P2PQuery{LocA: 1, LocB: 2, Periods: []record.PeriodID{9}}.encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(p2p)
	f.Add(VolumeQuery{Loc: 3, Period: 4}.encode())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeVolumeQuery(data)
		_, _ = decodePointQuery(data)
		_, _ = decodeP2PQuery(data)
		_, _ = decodeResult(data)
		_, _ = decodeLocationList(data)
		_, _ = decodePeriodList(data)
	})
}

// FuzzUploadBatch: the batch decoder must never panic or over-allocate
// on hostile payloads, and accepted batches must re-encode to the same
// bytes.
func FuzzUploadBatch(f *testing.F) {
	recA, err := record.New(1, 1, 64)
	if err != nil {
		f.Fatal(err)
	}
	recB, err := record.New(2, 7, 128)
	if err != nil {
		f.Fatal(err)
	}
	recB.Bitmap.Set(9)
	seed, err := EncodeRecordBatch([]*record.Record{recA, recB})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})             // absurd count
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // absurd record length
	f.Add(seed[:len(seed)-3])                         // truncated final record

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeRecordBatch(data)
		if err != nil {
			return
		}
		out, err := EncodeRecordBatch(recs)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted batch does not round-trip")
		}
		_, _ = decodeBatchResult(data)
	})
}

// FuzzServerDispatch: the full server dispatch path must never panic on
// arbitrary frames; it must always produce a well-formed response frame.
func FuzzServerDispatch(f *testing.F) {
	rec, err := record.New(1, 1, 64)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := rec.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(MsgUpload), blob)
	f.Add(uint8(MsgQueryVolume), VolumeQuery{Loc: 1, Period: 1}.encode())
	f.Add(uint8(MsgListLocations), []byte{})
	f.Add(uint8(MsgListPeriods), make([]byte, 8))
	f.Add(uint8(99), []byte("junk"))

	store, err := central.NewServer(3)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := NewServer(store, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		respType, resp := srv.dispatch(MsgType(typ), payload)
		// The response must itself be frameable.
		if err := WriteFrame(io.Discard, respType, resp); err != nil {
			t.Fatalf("unframeable response: %v", err)
		}
	})
}
