package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"muppet/internal/event"
	"muppet/internal/queue"
)

// Wire format for the TCP transport. Exchanges are strictly
// request/response over one connection, so no request IDs are needed:
//
//	frame    = u32 big-endian length ++ body
//	body     = request | response         (plain bytes, no codec)
//	request  = 'Q' ++ str(sender) ++ uvarint(epoch) ++ uvarint(seq)
//	           ++ str(machine) ++ uvarint(n) ++ n*delivery
//	delivery = str(worker) ++ str(stream) ++ varint(ts) ++ uvarint(seq)
//	           ++ str(key) ++ blob(value) ++ varint(ingress)
//	response = 'R' ++ u8 status ++ uvarint(accepted)
//	           ++ uvarint(nrej) ++ nrej*(uvarint(index) ++ u8 code)
//	str      = uvarint(len) ++ bytes
//	blob     = uvarint(0) for nil, uvarint(len+1) ++ bytes otherwise
//
// A frame body is the message itself: batches are small and mostly
// short keys and values, so compressing them cost far more CPU than
// the bytes it saved on a LAN. There is no version byte and no
// fallback for older (deflated) frames — every node of a cluster must
// run the same build.
//
// Delivery.Tag never crosses the wire: it is a sender-side batch index
// and rejections are reported by batch position. Reject codes map back
// to the exact queue sentinel errors so errors.Is-based dispositions in
// the engines and the ingress driver behave identically on both sides
// of a socket.
const (
	wireReq  = 'Q'
	wireResp = 'R'
)

// Query frames share the connection (and the strict request/response
// discipline) with batch frames; the server dispatches on the kind
// byte:
//
//	query     = 'S' ++ str(machine) ++ blob(payload)
//	queryResp = 'T' ++ u8 status ++ blob(payload)
//
// The payload is opaque to this layer — the query subsystem owns its
// encoding — so the transport stays ignorant of query semantics. On a
// statusQueryFailed response the payload carries the remote error
// text.
const (
	wireQueryReq  = 'S'
	wireQueryResp = 'T'
)

// Response status codes.
const (
	statusOK byte = iota
	statusMachineDown
	statusNoHandler
	statusUnknownMachine
	statusQueryFailed
)

// Per-delivery reject codes.
const (
	rejectOther byte = iota
	rejectOverflow
	rejectClosed
)

// ErrRemoteReject is the sender-side stand-in for a remote rejection
// cause that has no dedicated wire code.
var ErrRemoteReject = errors.New("cluster: delivery rejected by remote machine")

var errWireTruncated = errors.New("cluster: truncated wire message")

func rejectCode(err error) byte {
	switch {
	case errors.Is(err, queue.ErrOverflow):
		return rejectOverflow
	case errors.Is(err, queue.ErrClosed):
		return rejectClosed
	default:
		return rejectOther
	}
}

func rejectErr(code byte) error {
	switch code {
	case rejectOverflow:
		return queue.ErrOverflow
	case rejectClosed:
		return queue.ErrClosed
	default:
		return ErrRemoteReject
	}
}

// statusErr maps a response status to the sender-visible error.
func statusErr(status byte, machine string) error {
	switch status {
	case statusOK:
		return nil
	case statusMachineDown:
		return ErrMachineDown
	case statusNoHandler:
		return ErrNoHandler
	case statusUnknownMachine:
		return fmt.Errorf("cluster: unknown machine %s", machine)
	default:
		return fmt.Errorf("cluster: bad response status %d", status)
	}
}

// statusOf maps a local delivery error to its wire status.
func statusOf(err error) byte {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, ErrMachineDown):
		return statusMachineDown
	case errors.Is(err, ErrNoHandler):
		return statusNoHandler
	default:
		return statusUnknownMachine
	}
}

// queryStatusOf maps a local query error to its wire status; handler
// errors become statusQueryFailed with the text carried alongside.
func queryStatusOf(err error) byte {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, ErrMachineDown):
		return statusMachineDown
	case errors.Is(err, ErrNoHandler):
		return statusNoHandler
	default:
		return statusQueryFailed
	}
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBlob preserves the nil/empty distinction: 0 encodes nil,
// n+1 encodes n bytes.
func appendBlob(dst, b []byte) []byte {
	if b == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

// wireReader decodes the primitives above with explicit truncation
// checks; err latches on the first failure.
type wireReader struct {
	p   []byte
	err error
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.err = errWireTruncated
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.p)
	if n <= 0 {
		r.err = errWireTruncated
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.p) == 0 {
		r.err = errWireTruncated
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

func (r *wireReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.p)) < n {
		r.err = errWireTruncated
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *wireReader) str() string { return string(r.take(r.uvarint())) }

// name reads a str through the intern table. prev is the same field of
// the previous delivery; a batch's names mostly repeat, so matching it
// skips the table lookup.
func (r *wireReader) name(names *internTable, prev string) string {
	b := r.take(r.uvarint())
	if string(b) == prev {
		return prev
	}
	return names.get(b)
}

// blobRef reads a blob without copying it: a non-nil result aliases
// the frame and must be copied before the frame buffer is reused.
func (r *wireReader) blobRef() []byte {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	return r.take(n - 1)
}

func (r *wireReader) blob() []byte {
	b := r.blobRef()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Intern table bounds: the names worth sharing (workers, streams,
// senders, machines) are few and short, and a garbled peer must not be
// able to grow a connection's table without limit.
const (
	maxInterned    = 256
	maxInternedLen = 128
)

// internTable hands out one shared string per distinct name, so a
// connection's steady stream of frames decodes worker and stream names
// without allocating. It is owned by one connection's serve loop and
// needs no lock. A nil table allocates every string.
type internTable struct {
	m map[string]string
}

func (t *internTable) get(b []byte) string {
	if t == nil {
		return string(b)
	}
	if s, ok := t.m[string(b)]; ok { // the lookup does not allocate
		return s
	}
	s := string(b)
	if len(b) <= maxInternedLen && len(t.m) < maxInterned {
		if t.m == nil {
			t.m = make(map[string]string)
		}
		t.m[s] = s
	}
	return s
}

// encodeRequest appends the request for a batch addressed to machine.
// The BatchID rides in front of the address so the receiving node can
// deduplicate retried and duplicated frames.
func encodeRequest(dst []byte, id BatchID, machine string, ds []Delivery) []byte {
	dst = append(dst, wireReq)
	dst = appendStr(dst, id.Sender)
	dst = binary.AppendUvarint(dst, id.Epoch)
	dst = binary.AppendUvarint(dst, id.Seq)
	dst = appendStr(dst, machine)
	dst = binary.AppendUvarint(dst, uint64(len(ds)))
	for i := range ds {
		d := &ds[i]
		dst = appendStr(dst, d.Worker)
		dst = appendStr(dst, d.Ev.Stream)
		dst = binary.AppendVarint(dst, int64(d.Ev.TS))
		dst = binary.AppendUvarint(dst, d.Ev.Seq)
		dst = appendStr(dst, d.Ev.Key)
		dst = appendBlob(dst, d.Ev.Value)
		dst = binary.AppendVarint(dst, d.Ev.Ingress)
	}
	return dst
}

// decodeRequest parses a request. The deliveries' Tag fields are their
// batch positions, so server-side rejects report the right index.
//
// Nothing returned aliases p, so the caller may reuse the frame buffer.
// The allocations are kept per frame where possible: sender, machine,
// worker and stream names come from names (nil allocates each), and
// every Value is carved from one shared buffer, capped so an append to
// one value reallocates instead of overwriting the next. Each Key is
// its own allocation: keys become slate-cache keys and outlive the
// frame by far, so they must not pin it.
func decodeRequest(p []byte, names *internTable) (id BatchID, machine string, ds []Delivery, err error) {
	r := wireReader{p: p}
	if k := r.byte(); r.err == nil && k != wireReq {
		return BatchID{}, "", nil, fmt.Errorf("cluster: unexpected wire kind %q", k)
	}
	id.Sender = r.name(names, "")
	id.Epoch = r.uvarint()
	id.Seq = r.uvarint()
	machine = r.name(names, "")
	n := r.uvarint()
	if r.err != nil {
		return BatchID{}, "", nil, r.err
	}
	if n > uint64(len(r.p)) { // each delivery takes >= 1 byte
		return BatchID{}, "", nil, errWireTruncated
	}
	ds = make([]Delivery, n)
	values := 0
	var worker, stream string // the previous delivery's names
	for i := range ds {
		d := &ds[i]
		worker = r.name(names, worker)
		stream = r.name(names, stream)
		d.Worker, d.Ev.Stream = worker, stream
		d.Ev.TS = event.Timestamp(r.varint())
		d.Ev.Seq = r.uvarint()
		d.Ev.Key = r.str()
		d.Ev.Value = r.blobRef() // aliases p until the copy below
		d.Ev.Ingress = r.varint()
		d.Tag = i
		if r.err != nil {
			return BatchID{}, "", nil, r.err
		}
		values += len(d.Ev.Value)
	}
	buf := make([]byte, 0, values)
	for i := range ds {
		v := ds[i].Ev.Value
		if v == nil {
			continue
		}
		a := len(buf)
		buf = append(buf, v...)
		ds[i].Ev.Value = buf[a:len(buf):len(buf)]
	}
	return id, machine, ds, nil
}

// encodeResponse appends the response for one exchange.
func encodeResponse(dst []byte, status byte, accepted int, rejects []BatchReject) []byte {
	dst = append(dst, wireResp, status)
	dst = binary.AppendUvarint(dst, uint64(accepted))
	dst = binary.AppendUvarint(dst, uint64(len(rejects)))
	for _, rj := range rejects {
		dst = binary.AppendUvarint(dst, uint64(rj.Index))
		dst = append(dst, rejectCode(rj.Err))
	}
	return dst
}

// encodeQueryRequest appends the query request addressed to
// machine; the payload is the query subsystem's encoded spec.
func encodeQueryRequest(dst []byte, machine string, payload []byte) []byte {
	dst = append(dst, wireQueryReq)
	dst = appendStr(dst, machine)
	return appendBlob(dst, payload)
}

// decodeQueryRequest parses a query request.
func decodeQueryRequest(p []byte) (machine string, payload []byte, err error) {
	r := wireReader{p: p}
	if k := r.byte(); r.err == nil && k != wireQueryReq {
		return "", nil, fmt.Errorf("cluster: unexpected wire kind %q", k)
	}
	machine = r.str()
	payload = r.blob()
	if r.err != nil {
		return "", nil, r.err
	}
	return machine, payload, nil
}

// encodeQueryResponse appends the query response: the partial
// result on statusOK, the error text on statusQueryFailed, nothing
// otherwise.
func encodeQueryResponse(dst []byte, status byte, payload []byte) []byte {
	dst = append(dst, wireQueryResp, status)
	return appendBlob(dst, payload)
}

// decodeQueryResponse parses a query response.
func decodeQueryResponse(p []byte) (status byte, payload []byte, err error) {
	r := wireReader{p: p}
	if k := r.byte(); r.err == nil && k != wireQueryResp {
		return 0, nil, fmt.Errorf("cluster: unexpected wire kind %q", k)
	}
	status = r.byte()
	payload = r.blob()
	if r.err != nil {
		return 0, nil, r.err
	}
	return status, payload, nil
}

// queryStatusErr maps a query response status to the sender-visible
// error; a failed query carries the remote error text in the payload.
func queryStatusErr(status byte, machine string, payload []byte) error {
	if status == statusQueryFailed {
		return fmt.Errorf("cluster: query on %s failed: %s", machine, payload)
	}
	return statusErr(status, machine)
}

// decodeResponse parses a response, mapping reject codes back to
// the queue sentinel errors.
func decodeResponse(p []byte) (status byte, accepted int, rejects []BatchReject, err error) {
	r := wireReader{p: p}
	if k := r.byte(); r.err == nil && k != wireResp {
		return 0, 0, nil, fmt.Errorf("cluster: unexpected wire kind %q", k)
	}
	status = r.byte()
	accepted = int(r.uvarint())
	n := r.uvarint()
	if r.err != nil {
		return 0, 0, nil, r.err
	}
	if n > uint64(len(r.p)) { // each reject takes >= 2 bytes
		return 0, 0, nil, errWireTruncated
	}
	for i := uint64(0); i < n; i++ {
		idx := r.uvarint()
		code := r.byte()
		if r.err != nil {
			return 0, 0, nil, r.err
		}
		rejects = append(rejects, BatchReject{Index: int(idx), Err: rejectErr(code)})
	}
	return status, accepted, rejects, nil
}
