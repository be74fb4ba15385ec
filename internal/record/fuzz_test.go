package record

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal: the record parser faces data from the network; it must
// never panic, accepted inputs must round-trip byte-identically, and the
// header reader must agree with it.
func FuzzUnmarshal(f *testing.F) {
	r, err := New(7, 3, 128)
	if err != nil {
		f.Fatal(err)
	}
	r.Bitmap.Set(19)
	good, err := r.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:recHeader])
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		loc, period, hdrErr := UnmarshalHeader(data)
		rec, err := Unmarshal(data)
		if hdrErr != nil {
			if err == nil || err.Error() != hdrErr.Error() {
				t.Fatalf("header rejected with %v, Unmarshal with %v", hdrErr, err)
			}
			return
		}
		if err != nil {
			return
		}
		if rec.Location != loc || rec.Period != period {
			t.Fatalf("header read %d/%d, record is %d/%d", loc, period, rec.Location, rec.Period)
		}
		out, err := rec.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted record does not round-trip")
		}
	})
}
