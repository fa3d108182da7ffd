// V2 binary framing: the SEM protocol's only framing.
//
// The JSON framing of this package (wire.go: 4-byte length + JSON body,
// still spoken by internal/cluster's share protocol) spends a JSON
// marshal, a base64 expansion and several transient buffers on every
// protocol operation — acceptable for admin traffic, hostile to a mediator
// that serves a pairing-bound token per request. The v2 framing replaces
// the JSON body with a fixed binary header and length-delimited fields
// copied straight from the compressed-point/scalar encodings, and carries
// up to maxBatch operations per frame so batched requests amortize both
// the framing and the round trip.
//
// Connection preamble (client → server, once, before any frame):
//
//	magic "SEM2" (4 bytes) | version (1 byte)
//
// Server acknowledgement (server → client, once):
//
//	magic "SEM2" (4 bytes) | version (1 byte) |
//	maxBatch (2 bytes BE)  | maxFrame (4 bytes BE)
//
// The magic's first byte 'S' (0x53) can never open a JSON frame: those are
// length-prefixed and capped well below 2^24, so their first byte is always
// 0x00. One byte therefore tells a SEM server that a peer is not speaking
// this protocol, and it closes the connection.
//
// Frame layout (both directions):
//
//	frameLen (4 bytes BE, body length) | body
//	request body:  op (1) | count (2 BE) | count × item
//	request item:  idLen (2 BE) | id | payloadLen (4 BE) | payload
//	response body: op (1) | count (2 BE) | count × item
//	response item: status (1) | dataLen (4 BE) | data
//
// Encode and decode run against caller-owned reused buffers and are
// allocation-free in steady state (the //cryptolint:hotpath markers make
// the allocfree analyzer enforce it); decoded items alias the decoder's
// frame buffer and stay valid until its next Read call.

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// V2Version is the protocol version negotiated by the v2 preamble.
const V2Version = 2

// v2Magic opens every v2 connection preamble and acknowledgement.
var v2Magic = [4]byte{'S', 'E', 'M', '2'}

// V2MagicByte is the first byte of the v2 preamble; a server refuses a
// connection that opens with anything else (a length-prefixed JSON frame
// always starts with 0x00).
const V2MagicByte = byte('S')

// V2 frame geometry.
const (
	v2FrameHdrLen = 4     // big-endian body length
	v2BodyHdrLen  = 3     // op (1) + count (2)
	v2ReqItemHdr  = 2 + 4 // idLen + payloadLen
	v2RespItemHdr = 1 + 4 // status + dataLen
	v2HelloLen    = 5     // magic + version
	v2AckLen      = 4 + 1 + 2 + 4
	v2MaxIDLen    = 0xFFFF // idLen is a uint16
	// V2MaxFrame caps any negotiable frame limit: the length prefix keeps
	// its top byte zero, so no frame can be mistaken for a preamble.
	V2MaxFrame = 1<<24 - 1
	// V2MaxBatch caps any negotiable batch limit (count is a uint16).
	V2MaxBatch = 0xFFFF
)

var (
	// ErrBatchTooLarge is returned when a peer sends more items in one
	// frame than the negotiated batch limit allows.
	ErrBatchTooLarge = errors.New("wire: batch exceeds negotiated limit")

	// Pre-wrapped protocol errors for the hotpath decode routines (which
	// must not call fmt).
	errV2Truncated       = fmt.Errorf("%w: truncated v2 frame", ErrProtocol)
	errV2BadItem         = fmt.Errorf("%w: v2 item overruns its frame", ErrProtocol)
	errV2TrailingGarbage = fmt.Errorf("%w: v2 frame has bytes after its last item", ErrProtocol)
	errV2BadMagic        = fmt.Errorf("%w: bad v2 preamble magic", ErrProtocol)
	errV2BadVersion      = fmt.Errorf("%w: unsupported v2 protocol version", ErrProtocol)
)

// ReqItem is one request of a v2 frame: an identity and an op-specific
// payload (a compressed point, a scalar, packed integers — whatever the op
// defines). Decoded items alias the decoder's buffer.
type ReqItem struct {
	ID      []byte
	Payload []byte
}

// RespItem is one response of a v2 frame: a status byte (0 = OK, anything
// else an op-layer error code) and the result or error-message bytes.
// Decoded items alias the decoder's buffer.
type RespItem struct {
	Status byte
	Data   []byte
}

// WriteV2Hello sends the client-side connection preamble.
func WriteV2Hello(w io.Writer, version byte) error {
	var buf [v2HelloLen]byte
	copy(buf[:4], v2Magic[:])
	buf[4] = version
	_, err := w.Write(buf[:])
	return err
}

// ReadV2HelloTail completes a preamble whose first byte the server already
// consumed (and matched against V2MagicByte): it reads and validates the
// remaining magic bytes and returns the announced version.
func ReadV2HelloTail(r io.Reader) (version byte, err error) {
	var buf [v2HelloLen - 1]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("%w: short v2 preamble: %w", ErrProtocol, err)
	}
	if buf[0] != v2Magic[1] || buf[1] != v2Magic[2] || buf[2] != v2Magic[3] {
		return 0, errV2BadMagic
	}
	return buf[3], nil
}

// WriteV2Ack sends the server acknowledgement carrying the accepted
// version and the connection's negotiated limits.
func WriteV2Ack(w io.Writer, version byte, maxBatch, maxFrame int) error {
	if maxBatch < 1 || maxBatch > V2MaxBatch {
		return fmt.Errorf("wire: ack maxBatch %d outside 1..%d", maxBatch, V2MaxBatch)
	}
	if maxFrame < 1 || maxFrame > V2MaxFrame {
		return fmt.Errorf("wire: ack maxFrame %d outside 1..%d", maxFrame, V2MaxFrame)
	}
	var buf [v2AckLen]byte
	copy(buf[:4], v2Magic[:])
	buf[4] = version
	binary.BigEndian.PutUint16(buf[5:7], uint16(maxBatch))
	binary.BigEndian.PutUint32(buf[7:11], uint32(maxFrame))
	_, err := w.Write(buf[:])
	return err
}

// ReadV2Ack reads the server acknowledgement and returns the negotiated
// version and limits.
func ReadV2Ack(r io.Reader) (version byte, maxBatch, maxFrame int, err error) {
	var buf [v2AckLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("%w: short v2 ack: %w", ErrProtocol, err)
	}
	if [4]byte(buf[:4]) != v2Magic {
		return 0, 0, 0, errV2BadMagic
	}
	if buf[4] != V2Version {
		return 0, 0, 0, errV2BadVersion
	}
	maxBatch = int(binary.BigEndian.Uint16(buf[5:7]))
	maxFrame = int(binary.BigEndian.Uint32(buf[7:11]))
	if maxBatch < 1 || maxFrame < v2BodyHdrLen {
		return 0, 0, 0, fmt.Errorf("%w: v2 ack announces degenerate limits (%d, %d)", ErrProtocol, maxBatch, maxFrame)
	}
	return buf[4], maxBatch, maxFrame, nil
}

// FrameEncoder builds v2 frames into one reused buffer. The slice returned
// by EncodeRequest/EncodeResponse (including the 4-byte length prefix,
// ready for a single Write) is valid until the next Encode call. The zero
// value is ready to use; an encoder is not safe for concurrent use.
type FrameEncoder struct {
	// The working buffer holds post-serialization wire bytes: everything
	// written here is addressed to the peer by design, the module's
	// sanctioned output edge (tokens and half-results go to the user; the
	// taint question for their inputs is settled at the compute sites).
	buf []byte //cryptolint:public (serialized wire bytes, addressed to the peer by design)
}

// grow resizes the working buffer to exactly n bytes, reallocating only
// when capacity is short — the amortized path of the zero-alloc encode.
func (e *FrameEncoder) grow(n int) []byte {
	if cap(e.buf) < n {
		e.buf = make([]byte, n)
	}
	e.buf = e.buf[:n]
	return e.buf
}

// RequestBodySize is the body length of the request frame carrying items —
// what EncodeRequest holds against maxFrame, exposed so a sender merging
// requests into one frame can stop before the negotiated cap.
func RequestBodySize(items []ReqItem) int {
	body := v2BodyHdrLen
	for i := range items {
		body += v2ReqItemHdr + len(items[i].ID) + len(items[i].Payload)
	}
	return body
}

// EncodeRequest encodes op plus its batch of items and returns the
// complete frame, rejecting frames beyond maxFrame body bytes. maxFrame
// ≤ 0 selects the package default MaxFrame.
func (e *FrameEncoder) EncodeRequest(op byte, items []ReqItem, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = MaxFrame
	}
	if len(items) > V2MaxBatch {
		return nil, ErrBatchTooLarge
	}
	for i := range items {
		if len(items[i].ID) > v2MaxIDLen {
			return nil, fmt.Errorf("%w: item %d identity is %d bytes (limit %d)", ErrProtocol, i, len(items[i].ID), v2MaxIDLen)
		}
	}
	body := RequestBodySize(items)
	if body > maxFrame {
		return nil, ErrFrameTooLarge
	}
	buf := e.grow(v2FrameHdrLen + body)
	fillRequest(buf, op, items)
	return buf, nil
}

// fillRequest writes the frame into a pre-sized buffer.
//
//cryptolint:hotpath
func fillRequest(buf []byte, op byte, items []ReqItem) {
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(buf)-v2FrameHdrLen))
	buf[4] = op
	binary.BigEndian.PutUint16(buf[5:7], uint16(len(items)))
	off := v2FrameHdrLen + v2BodyHdrLen
	for i := range items {
		id, payload := items[i].ID, items[i].Payload
		binary.BigEndian.PutUint16(buf[off:off+2], uint16(len(id)))
		off += 2
		off += copy(buf[off:], id)
		binary.BigEndian.PutUint32(buf[off:off+4], uint32(len(payload)))
		off += 4
		off += copy(buf[off:], payload)
	}
}

// EncodeResponse encodes op plus its batch of response items and returns
// the complete frame, rejecting frames beyond maxFrame body bytes.
// maxFrame ≤ 0 selects the package default MaxFrame.
func (e *FrameEncoder) EncodeResponse(op byte, items []RespItem, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = MaxFrame
	}
	if len(items) > V2MaxBatch {
		return nil, ErrBatchTooLarge
	}
	body := v2BodyHdrLen
	for i := range items {
		body += v2RespItemHdr + len(items[i].Data)
	}
	if body > maxFrame {
		return nil, ErrFrameTooLarge
	}
	buf := e.grow(v2FrameHdrLen + body)
	fillResponse(buf, op, items)
	return buf, nil
}

// fillResponse writes the frame into a pre-sized buffer.
//
//cryptolint:hotpath
func fillResponse(buf []byte, op byte, items []RespItem) {
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(buf)-v2FrameHdrLen))
	buf[4] = op
	binary.BigEndian.PutUint16(buf[5:7], uint16(len(items)))
	off := v2FrameHdrLen + v2BodyHdrLen
	for i := range items {
		buf[off] = items[i].Status
		off++
		binary.BigEndian.PutUint32(buf[off:off+4], uint32(len(items[i].Data)))
		off += 4
		off += copy(buf[off:], items[i].Data)
	}
}

// FrameDecoder reads v2 frames into reused buffers. Returned item slices
// and their ID/Payload/Data fields alias the decoder's buffer and are valid
// until the next Read call, so a pipelining server keeps one decoder per
// in-flight frame. The zero value is ready to use; a decoder is not safe
// for concurrent use.
// Decoder state is received wire bytes — data the peer already holds, the
// mirror image of the encoder's output edge — so the buffers and the item
// views aliasing them are declared public to the taint layer.
type FrameDecoder struct {
	hdr  [v2FrameHdrLen]byte //cryptolint:public (prefix scratch; a local would escape through io.ReadFull)
	buf  []byte              //cryptolint:public (received wire bytes, known to the peer)
	req  []ReqItem           //cryptolint:public (views aliasing buf)
	resp []RespItem          //cryptolint:public (views aliasing buf)
}

// readBody reads the length prefix and body, enforcing maxFrame, and
// returns the body and total bytes consumed. An error from the length
// prefix read is returned verbatim so callers can distinguish a clean EOF
// from a torn frame.
//
//cryptolint:hotpath
func (d *FrameDecoder) readBody(r io.Reader, maxFrame int) ([]byte, int, error) {
	if _, err := io.ReadFull(r, d.hdr[:]); err != nil {
		return nil, 0, err
	}
	// Unsigned compare before narrowing so a length ≥ 2³¹ classifies as
	// ErrFrameTooLarge on 32-bit platforms too, instead of wrapping
	// negative.
	n32 := binary.BigEndian.Uint32(d.hdr[:])
	if uint64(n32) > uint64(maxFrame) {
		return nil, 0, ErrFrameTooLarge
	}
	n := int(n32)
	if n < v2BodyHdrLen {
		return nil, 0, errV2Truncated
	}
	if cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(r, d.buf); err != nil {
		return nil, 0, errV2Truncated
	}
	return d.buf, v2FrameHdrLen + n, nil
}

// ReadRequest reads one request frame, enforcing the connection's
// negotiated frame and batch limits (values ≤ 0 select the package
// defaults MaxFrame and V2MaxBatch). On ErrFrameTooLarge the announced
// body has not been consumed; the connection cannot be resynchronized.
//
//cryptolint:hotpath
func (d *FrameDecoder) ReadRequest(r io.Reader, maxFrame, maxBatch int) (op byte, items []ReqItem, n int, err error) {
	if maxFrame <= 0 {
		maxFrame = MaxFrame
	}
	if maxBatch <= 0 {
		maxBatch = V2MaxBatch
	}
	body, n, err := d.readBody(r, maxFrame)
	if err != nil {
		return 0, nil, 0, err
	}
	op = body[0]
	count := int(binary.BigEndian.Uint16(body[1:3]))
	if count > maxBatch {
		return op, nil, n, ErrBatchTooLarge
	}
	if cap(d.req) < count {
		d.req = make([]ReqItem, count)
	}
	d.req = d.req[:count]
	off := v2BodyHdrLen
	for i := 0; i < count; i++ {
		if len(body)-off < v2ReqItemHdr {
			return op, nil, n, errV2BadItem
		}
		idLen := int(binary.BigEndian.Uint16(body[off : off+2]))
		off += 2
		if len(body)-off < idLen+4 {
			return op, nil, n, errV2BadItem
		}
		id := body[off : off+idLen]
		off += idLen
		// Compare the 32-bit wire length unsigned before narrowing to int:
		// on 32-bit platforms int(Uint32) goes negative for lengths ≥ 2³¹
		// and a signed `< payLen` guard would let the slice expression
		// panic on attacker-chosen input.
		payLen32 := binary.BigEndian.Uint32(body[off : off+4])
		off += 4
		if uint64(payLen32) > uint64(len(body)-off) {
			return op, nil, n, errV2BadItem
		}
		payLen := int(payLen32)
		d.req[i] = ReqItem{ID: id, Payload: body[off : off+payLen]}
		off += payLen
	}
	if off != len(body) {
		return op, nil, n, errV2TrailingGarbage
	}
	return op, d.req, n, nil
}

// ReadResponse reads one response frame, enforcing the connection's
// negotiated frame and batch limits (values ≤ 0 select the package
// defaults MaxFrame and V2MaxBatch).
//
//cryptolint:hotpath
func (d *FrameDecoder) ReadResponse(r io.Reader, maxFrame, maxBatch int) (op byte, items []RespItem, n int, err error) {
	if maxFrame <= 0 {
		maxFrame = MaxFrame
	}
	if maxBatch <= 0 {
		maxBatch = V2MaxBatch
	}
	body, n, err := d.readBody(r, maxFrame)
	if err != nil {
		return 0, nil, 0, err
	}
	op = body[0]
	count := int(binary.BigEndian.Uint16(body[1:3]))
	if count > maxBatch {
		return op, nil, n, ErrBatchTooLarge
	}
	if cap(d.resp) < count {
		d.resp = make([]RespItem, count)
	}
	d.resp = d.resp[:count]
	off := v2BodyHdrLen
	for i := 0; i < count; i++ {
		if len(body)-off < v2RespItemHdr {
			return op, nil, n, errV2BadItem
		}
		status := body[off]
		off++
		// Unsigned bound check before narrowing — see ReadRequest.
		dataLen32 := binary.BigEndian.Uint32(body[off : off+4])
		off += 4
		if uint64(dataLen32) > uint64(len(body)-off) {
			return op, nil, n, errV2BadItem
		}
		dataLen := int(dataLen32)
		d.resp[i] = RespItem{Status: status, Data: body[off : off+dataLen]}
		off += dataLen
	}
	if off != len(body) {
		return op, nil, n, errV2TrailingGarbage
	}
	return op, d.resp, n, nil
}
