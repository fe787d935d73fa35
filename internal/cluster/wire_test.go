package cluster

import (
	"errors"
	"fmt"
	"testing"

	"muppet/internal/event"
	"muppet/internal/queue"
)

func TestWireRequestRoundTrip(t *testing.T) {
	ds := []Delivery{
		{Worker: "U1#0", Ev: event.Event{Stream: "S1", TS: 123456, Seq: 9, Key: "k", Value: []byte("v"), Ingress: -7}, Tag: 42},
		{Worker: "U2#1", Ev: event.Event{Stream: "S2", TS: -5, Key: "nil-value"}},
		{Worker: "", Ev: event.Event{Key: "", Value: []byte{}}}, // empty strings, empty value
	}
	id := BatchID{Sender: "node-a", Epoch: 77, Seq: 12345}
	p := encodeRequest(nil, id, "machine-03", ds)
	gotID, machine, got, err := decodeRequest(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id {
		t.Fatalf("batch id = %+v, want %+v", gotID, id)
	}
	if machine != "machine-03" {
		t.Fatalf("machine = %q", machine)
	}
	if len(got) != len(ds) {
		t.Fatalf("decoded %d deliveries, want %d", len(got), len(ds))
	}
	for i := range ds {
		w, g := ds[i], got[i]
		if g.Worker != w.Worker || g.Ev.Stream != w.Ev.Stream || g.Ev.TS != w.Ev.TS ||
			g.Ev.Seq != w.Ev.Seq || g.Ev.Key != w.Ev.Key || g.Ev.Ingress != w.Ev.Ingress {
			t.Errorf("delivery %d = %+v, want %+v", i, g, w)
		}
		if string(g.Ev.Value) != string(w.Ev.Value) || (g.Ev.Value == nil) != (w.Ev.Value == nil) {
			t.Errorf("delivery %d value = %#v, want %#v", i, g.Ev.Value, w.Ev.Value)
		}
		// Tag is sender-local: the decoder assigns batch positions.
		if g.Tag != i {
			t.Errorf("delivery %d tag = %d, want batch position %d", i, g.Tag, i)
		}
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	rejects := []BatchReject{
		{Index: 1, Err: queue.ErrOverflow},
		{Index: 4, Err: queue.ErrClosed},
		{Index: 7, Err: errors.New("some local mishap")},
	}
	p := encodeResponse(nil, statusOK, 17, rejects)
	status, accepted, got, err := decodeResponse(p)
	if err != nil {
		t.Fatal(err)
	}
	if status != statusOK || accepted != 17 {
		t.Fatalf("status=%d accepted=%d", status, accepted)
	}
	if len(got) != 3 {
		t.Fatalf("rejects = %v", got)
	}
	if got[0].Index != 1 || !errors.Is(got[0].Err, queue.ErrOverflow) {
		t.Errorf("reject 0 = %v; overflow sentinel must survive", got[0])
	}
	if got[1].Index != 4 || !errors.Is(got[1].Err, queue.ErrClosed) {
		t.Errorf("reject 1 = %v; closed sentinel must survive", got[1])
	}
	if got[2].Index != 7 || !errors.Is(got[2].Err, ErrRemoteReject) {
		t.Errorf("reject 2 = %v; unknown causes map to ErrRemoteReject", got[2])
	}
}

func TestWireStatusRoundTrip(t *testing.T) {
	for _, err := range []error{nil, ErrMachineDown, ErrNoHandler} {
		back := statusErr(statusOf(err), "machine-00")
		if !errors.Is(back, err) && !(err == nil && back == nil) {
			t.Errorf("status round-trip of %v came back %v", err, back)
		}
	}
}

func TestWireTruncationSafety(t *testing.T) {
	ds := []Delivery{{Worker: "w", Ev: event.Event{Stream: "S1", Key: "k", Value: []byte("abc")}}}
	req := encodeRequest(nil, BatchID{Sender: "node-a", Epoch: 1, Seq: 2}, "machine-00", ds)
	for cut := 0; cut < len(req); cut++ {
		if _, _, _, err := decodeRequest(req[:cut], nil); err == nil {
			t.Fatalf("decodeRequest accepted a %d/%d-byte prefix", cut, len(req))
		}
	}
	resp := encodeResponse(nil, statusOK, 3, []BatchReject{{Index: 2, Err: queue.ErrOverflow}})
	for cut := 0; cut < len(resp); cut++ {
		if _, _, _, err := decodeResponse(resp[:cut]); err == nil {
			t.Fatalf("decodeResponse accepted a %d/%d-byte prefix", cut, len(resp))
		}
	}
}

// A hostile count prefix must not drive allocation: the decoder bounds
// the claimed element count by the remaining bytes.
func TestWireHostileCount(t *testing.T) {
	p := encodeRequest(nil, BatchID{}, "m", nil)
	// Rewrite the delivery count to an absurd value: everything up to
	// the trailing count byte is 'Q' ++ str("") ++ 0 ++ 0 ++ str("m").
	hostile := append([]byte{}, p[:len(p)-1]...)
	hostile = append(hostile, 0xff, 0xff, 0xff, 0xff, 0x7f) // uvarint ~34G
	if _, _, _, err := decodeRequest(hostile, nil); err == nil {
		t.Fatal("hostile delivery count accepted")
	}
}

func TestWireWrongKind(t *testing.T) {
	if _, _, _, err := decodeRequest([]byte{'R'}, nil); err == nil {
		t.Fatal("response bytes accepted as request")
	}
	if _, _, _, err := decodeResponse([]byte{'Q'}); err == nil {
		t.Fatal("request bytes accepted as response")
	}
}

// sameDeliveries reports the first difference between two decoded
// batches, comparing every wire field exactly — Value's nil-vs-empty
// distinction included — and expecting Tag to be the batch position.
func sameDeliveries(got, want []Delivery) error {
	if len(got) != len(want) {
		return fmt.Errorf("decoded %d deliveries, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Worker != w.Worker || g.Ev.Stream != w.Ev.Stream || g.Ev.TS != w.Ev.TS ||
			g.Ev.Seq != w.Ev.Seq || g.Ev.Key != w.Ev.Key || g.Ev.Ingress != w.Ev.Ingress {
			return fmt.Errorf("delivery %d = %+v, want %+v", i, g, w)
		}
		if string(g.Ev.Value) != string(w.Ev.Value) || (g.Ev.Value == nil) != (w.Ev.Value == nil) {
			return fmt.Errorf("delivery %d value = %#v, want %#v", i, g.Ev.Value, w.Ev.Value)
		}
		if g.Tag != i {
			return fmt.Errorf("delivery %d tag = %d, want batch position %d", i, g.Tag, i)
		}
	}
	return nil
}

func FuzzDecodeRequest(f *testing.F) {
	seed := []Delivery{
		{Worker: "U1", Ev: event.Event{Stream: "S1", TS: 5, Seq: 1, Key: "k", Value: []byte("v"), Ingress: 9}},
		{Worker: "U1", Ev: event.Event{Stream: "S1", Key: "nil"}},
		{Worker: "M2", Ev: event.Event{Stream: "S2", Key: "empty", Value: []byte{}}},
	}
	f.Add(encodeRequest(nil, BatchID{Sender: "a", Epoch: 1, Seq: 2}, "machine-00", seed), "key", []byte("value"), false, int64(-3))
	f.Add([]byte{wireReq}, "", []byte{}, true, int64(0))
	f.Add([]byte{wireReq, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, "k", []byte(nil), false, int64(1))
	f.Fuzz(func(t *testing.T, data []byte, key string, value []byte, nilValue bool, ts int64) {
		// Arbitrary bytes: an error or a batch, never a panic; whatever
		// decodes must survive re-encoding unchanged.
		var names internTable
		if id, machine, ds, err := decodeRequest(data, &names); err == nil {
			id2, machine2, ds2, err := decodeRequest(encodeRequest(nil, id, machine, ds), &names)
			if err != nil || id2 != id || machine2 != machine {
				t.Fatalf("re-decode: id %+v/%+v machine %q/%q err %v", id2, id, machine2, machine, err)
			}
			if err := sameDeliveries(ds2, ds); err != nil {
				t.Fatal(err)
			}
		}
		if len(names.m) > maxInterned {
			t.Fatalf("intern table grew to %d names, bound %d", len(names.m), maxInterned)
		}

		// A valid batch built from the inputs round-trips exactly.
		if nilValue {
			value = nil
		} else if value == nil {
			value = []byte{}
		}
		want := []Delivery{
			{Worker: key, Ev: event.Event{Stream: "S1", TS: event.Timestamp(ts), Key: key, Value: value, Ingress: ts}},
			{Worker: "U1", Ev: event.Event{Stream: key, Seq: uint64(len(data)), Key: string(data), Value: data}},
		}
		for i := range want {
			want[i].Tag = i
		}
		id := BatchID{Sender: key, Epoch: uint64(ts), Seq: 7}
		gotID, machine, got, err := decodeRequest(encodeRequest(nil, id, "machine-01", want), &names)
		if err != nil {
			t.Fatal(err)
		}
		if gotID != id || machine != "machine-01" {
			t.Fatalf("id %+v machine %q, want %+v machine-01", gotID, machine, id)
		}
		if err := sameDeliveries(got, want); err != nil {
			t.Fatal(err)
		}
	})
}

// Decoded values share one buffer; appending to one must reallocate
// rather than overwrite its neighbour, and nothing may alias the frame.
func TestWireDecodedValuesDoNotAlias(t *testing.T) {
	ds := []Delivery{
		{Worker: "w", Ev: event.Event{Key: "a", Value: []byte("first")}},
		{Worker: "w", Ev: event.Event{Key: "b", Value: []byte("second")}},
	}
	p := encodeRequest(nil, BatchID{}, "m", ds)
	_, _, got, err := decodeRequest(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got[0].Ev.Value = append(got[0].Ev.Value, "-grown"...)
	if string(got[1].Ev.Value) != "second" {
		t.Fatalf("appending to value 0 overwrote value 1: %q", got[1].Ev.Value)
	}
	for i := range p {
		p[i] = 0 // the frame buffer is reused for the next read
	}
	if string(got[0].Ev.Value) != "first-grown" || string(got[1].Ev.Value) != "second" || got[1].Ev.Key != "b" {
		t.Fatalf("decoded batch aliases the frame: %+v", got)
	}
}

// Decoding a frame costs one allocation per key plus a constant: names
// come from the connection's intern table and values from one buffer.
func TestWireDecodeAllocs(t *testing.T) {
	const n = 128
	ds := make([]Delivery, n)
	for i := range ds {
		ds[i] = Delivery{
			Worker: []string{"U1", "M1"}[i%2],
			Ev: event.Event{
				Stream: []string{"S1", "S2"}[i%2],
				Key:    fmt.Sprintf("key-%04d", i),
				Value:  []byte("sf,retailer,checkin"),
			},
		}
	}
	p := encodeRequest(nil, BatchID{Sender: "node-a", Epoch: 1, Seq: 2}, "machine-01", ds)
	var names internTable
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := decodeRequest(p, &names); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(n + 4); allocs > limit {
		t.Fatalf("decode of a %d-delivery frame = %.0f allocs, want <= %.0f", n, allocs, limit)
	}
}

// A peer sending endless distinct names cannot grow the intern table
// past its bound, and over-long names are never retained.
func TestWireInternTableBounded(t *testing.T) {
	var names internTable
	for i := 0; i < 4*maxInterned; i++ {
		if s := names.get([]byte(fmt.Sprintf("worker-%d", i))); s != fmt.Sprintf("worker-%d", i) {
			t.Fatalf("intern returned %q", s)
		}
	}
	if len(names.m) != maxInterned {
		t.Fatalf("intern table holds %d names, want the bound %d", len(names.m), maxInterned)
	}
	long := make([]byte, maxInternedLen+1)
	var fresh internTable
	fresh.get(long)
	if len(fresh.m) != 0 {
		t.Fatal("an over-long name was interned")
	}
}
