package cluster

// Record-fetch tests: the request codec, and a node answering exactly
// the requested periods of a location, whatever else it stores there.

import (
	"bytes"
	"strings"
	"testing"

	"ptm/internal/record"
	"ptm/internal/transport"
)

// fetch sends one record-fetch frame to tn and returns the raw response.
func fetch(t *testing.T, tn *testNode, payload []byte) []byte {
	t.Helper()
	rt, resp, handled := tn.node.HandleFrame(transport.MsgFetchRecords, payload)
	if !handled || rt != transport.MsgRecords {
		t.Fatalf("MsgFetchRecords: handled=%v type=%v", handled, rt)
	}
	return resp
}

func TestFetchAnswersOnlyRequestedPeriods(t *testing.T) {
	const m = 1 << 12
	want := []record.PeriodID{31, 4, 17, 40}
	full, window := startNode(t, "full"), startNode(t, "window")
	for p := 1; p <= 40; p++ {
		if err := full.node.Ingest(testRecord(t, 9, p, m)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range want {
		if err := window.node.Ingest(testRecord(t, 9, int(p), m)); err != nil {
			t.Fatal(err)
		}
	}

	resp := fetch(t, full, encodeFetch(9, want))
	body, err := splitPayload(resp)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := transport.DecodeRecordBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("fetch of %d periods from 40 stored answered %d records", len(want), len(recs))
	}
	for i, rec := range recs {
		ref := testRecord(t, 9, int(want[i]), m)
		if rec.Location != 9 || rec.Period != want[i] || !rec.Bitmap.Equal(ref.Bitmap) {
			t.Fatalf("record %d = loc %d period %d, want loc 9 period %d with its bits",
				i, rec.Location, rec.Period, want[i])
		}
	}
	// The answer is the window's records and nothing else: a node that
	// stores only the window answers the same bytes.
	if ref := fetch(t, window, encodeFetch(9, want)); !bytes.Equal(resp, ref) {
		t.Fatalf("fetch from 40 stored periods answered %d bytes, from the 4 alone %d", len(resp), len(ref))
	}

	// A missing period fails the whole fetch.
	if _, err := splitPayload(fetch(t, full, encodeFetch(9, []record.PeriodID{4, 41}))); err == nil ||
		!strings.Contains(err.Error(), "loc=9 period=41") {
		t.Fatalf("fetch naming an unstored period: err = %v, want period 41 not found", err)
	}
	// So does a whole-location fetch in the old 8-byte form.
	if _, err := splitPayload(fetch(t, full, encodeFetch(9, nil))); err == nil ||
		!strings.Contains(err.Error(), "names no periods") {
		t.Fatalf("whole-location fetch: err = %v, want a refusal", err)
	}
}

func TestDecodeFetchRefusesMalformed(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"short", make([]byte, 5)},
		{"location only", make([]byte, 8)},
		{"ragged tail", make([]byte, 13)},
		{"ragged after periods", make([]byte, 8+4*3+1)},
	} {
		if loc, periods, err := decodeFetch(tc.payload); err == nil {
			t.Errorf("%s (%d bytes): decoded loc %d periods %v, want an error", tc.name, len(tc.payload), loc, periods)
		}
	}
	want := []record.PeriodID{7, 1 << 31, 0, 7}
	loc, periods, err := decodeFetch(encodeFetch(1<<40+3, want))
	if err != nil || loc != 1<<40+3 || len(periods) != len(want) {
		t.Fatalf("round trip = %d %v %v", loc, periods, err)
	}
	for i := range want {
		if periods[i] != want[i] {
			t.Fatalf("round trip periods = %v, want %v", periods, want)
		}
	}
}

// FuzzDecodeFetch: decodeFetch never panics, accepts exactly the
// payloads of 8 + 4k bytes with k >= 1, and what it accepts re-encodes
// to the same bytes.
func FuzzDecodeFetch(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	f.Add(make([]byte, 13))
	f.Add(encodeFetch(1, []record.PeriodID{1, 2, 3, 4}))
	f.Fuzz(func(t *testing.T, p []byte) {
		loc, periods, err := decodeFetch(p)
		valid := len(p) >= 12 && (len(p)-8)%4 == 0
		if (err == nil) != valid {
			t.Fatalf("%d bytes: err = %v, valid = %v", len(p), err, valid)
		}
		if err == nil && !bytes.Equal(encodeFetch(loc, periods), p) {
			t.Fatalf("%d bytes do not survive decode and re-encode", len(p))
		}
	})
}
