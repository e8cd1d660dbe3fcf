// Package netproto is the binary wire protocol of the PPC serving fleet: a
// length-prefixed, CRC-32C-framed message stream over TCP, spoken by the
// leader's ship server (internal/replica.Server), the predict-only replicas
// (internal/replica.Replica) and the Go client library (pkg/client).
//
// Framing reuses the conventions of the WAL segments and the snapshot
// envelopes (persist.go) — Castagnoli CRC over a length-prefixed payload —
// so a torn or corrupted frame is always detected, never misparsed:
//
//	frame:   u32 payloadLen | u32 crc32c(payload) | payload
//	payload: u8 msgType | body
//
// All integers are little-endian. The first frame on every connection is a
// Hello carrying the protocol magic, version, the dialer's role, and — for
// replicas — the epoch and WAL sequence number of the state they already
// hold, which is what epoch fencing and incremental resume key off. The
// server answers with Welcome (or Error and a close). Epochs stamp every
// replication-relevant message so a replica can never mix state from two
// leader lineages.
package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"

	"repro/internal/faults"
)

const (
	// Magic opens every Hello; a server that reads anything else is talking
	// to a confused peer and closes immediately.
	Magic = "PPCNET\x00"
	// Version is the current protocol version. The handshake is strict:
	// mismatched versions are rejected with CodeVersionMismatch rather than
	// negotiated down (the fleet upgrades in lockstep).
	Version uint16 = 1
	// frameOverhead is the per-frame cost: length prefix + checksum.
	frameOverhead = 8
	// MaxFrame bounds a declared frame length so a corrupted length field
	// cannot drive a huge allocation. Snapshots are the largest messages; a
	// full checkpoint of every template fits comfortably in 64 MiB.
	MaxFrame = 64 << 20
)

// crcTable is the Castagnoli polynomial table shared with wal and persist.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// MsgType tags a frame's payload.
type MsgType uint8

const (
	// MsgHello is the dialer's first frame (magic, version, role, epoch,
	// last applied WAL sequence).
	MsgHello MsgType = 1
	// MsgWelcome accepts a handshake (version, resume flag, leader epoch,
	// leader WAL sequence).
	MsgWelcome MsgType = 2
	// MsgError rejects a handshake or aborts a stream with a typed code.
	MsgError MsgType = 3
	// MsgPredict is a client predict request.
	MsgPredict MsgType = 4
	// MsgPredictResult answers one MsgPredict.
	MsgPredictResult MsgType = 5
	// MsgSnapshot ships the leader's full learned state (the encoded
	// system state a checkpoint holds).
	MsgSnapshot MsgType = 6
	// MsgRecords ships a batch of WAL feedback records (PR 5 frame
	// encoding, verbatim).
	MsgRecords MsgType = 7
	// MsgHeartbeat carries liveness plus a sequence number: the leader
	// sends its WAL tail seq (replicas derive lag), the replica acks its
	// applied seq (the leader derives follower lag).
	MsgHeartbeat MsgType = 8
	// MsgPing / MsgPong are the client liveness probe.
	MsgPing MsgType = 9
	MsgPong MsgType = 10
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgError:
		return "error"
	case MsgPredict:
		return "predict"
	case MsgPredictResult:
		return "predict-result"
	case MsgSnapshot:
		return "snapshot"
	case MsgRecords:
		return "records"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	}
	return fmt.Sprintf("netproto.MsgType(%d)", int(t))
}

// Role identifies what the dialer wants from the connection.
type Role uint8

const (
	// RoleClient runs the predict RPC loop.
	RoleClient Role = 1
	// RoleReplica subscribes to state shipping (snapshot + WAL tail).
	RoleReplica Role = 2
)

// Error codes carried by MsgError.
const (
	// CodeVersionMismatch rejects a Hello whose protocol version differs.
	CodeVersionMismatch uint16 = 1
	// CodeNotLeader rejects a replica handshake on a node with no ship
	// source (a replica, or a leader without durability).
	CodeNotLeader uint16 = 2
	// CodeBusy rejects a replica handshake over the admission cap.
	CodeBusy uint16 = 3
	// CodeSnapshotNeeded aborts a ship stream whose tail position was
	// compacted away; the replica reconnects and receives a fresh snapshot.
	CodeSnapshotNeeded uint16 = 4
	// CodeBadRequest rejects a malformed message mid-stream.
	CodeBadRequest uint16 = 5
	// CodeInternal reports a server-side failure.
	CodeInternal uint16 = 6
)

// PredictResult status bytes.
const (
	// StatusOK carries a usable prediction.
	StatusOK uint8 = 0
	// StatusNoPrediction is a NULL prediction (warm-up, low confidence).
	StatusNoPrediction uint8 = 1
	// StatusUnknownTemplate names a template the node does not serve.
	StatusUnknownTemplate uint8 = 2
	// StatusBadRequest reports a malformed request (e.g. wrong dims).
	StatusBadRequest uint8 = 3
	// StatusNotReady reports a replica that holds no installed state yet.
	StatusNotReady uint8 = 4
)

// ErrBadFrame reports a frame that failed CRC or structural validation;
// the connection is no longer trustworthy and must be dropped.
var ErrBadFrame = errors.New("netproto: bad frame")

// ErrVersionMismatch reports a Hello from a different protocol version.
var ErrVersionMismatch = errors.New("netproto: protocol version mismatch")

// Conn frames messages over a net.Conn. Not safe for concurrent writers or
// concurrent readers; the protocol is sequential per direction (one reader
// goroutine, one writer goroutine at most).
type Conn struct {
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	hdr [frameOverhead]byte
	rb  []byte // read payload buffer, reused across ReadMsg calls
	wb  []byte // write frame buffer, reused across WriteMsg calls
	inj *faults.Injector
}

// NewConn wraps a net.Conn. inj optionally injects wire faults (torn or
// corrupted frames) on the write side; nil disables injection.
func NewConn(c net.Conn, inj *faults.Injector) *Conn {
	return &Conn{
		c:   c,
		br:  bufio.NewReaderSize(c, 64<<10),
		bw:  bufio.NewWriterSize(c, 64<<10),
		inj: inj,
	}
}

// NetConn exposes the underlying connection (deadlines, close).
func (c *Conn) NetConn() net.Conn { return c.c }

// WriteMsg frames body under msgType and flushes it.
func (c *Conn) WriteMsg(t MsgType, body []byte) error {
	payLen := 1 + len(body)
	if payLen > MaxFrame {
		return fmt.Errorf("netproto: message of %d bytes exceeds MaxFrame", payLen)
	}
	need := frameOverhead + payLen
	if cap(c.wb) < need {
		c.wb = make([]byte, need)
	}
	frame := c.wb[:need]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(payLen))
	frame[frameOverhead] = byte(t)
	copy(frame[frameOverhead+1:], body)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[frameOverhead:], crcTable))

	if c.inj.Should(faults.NetCorruptFrame) && len(frame) > frameOverhead {
		// Flip a payload byte after the CRC was computed: the peer must
		// detect the mismatch and drop the connection.
		frame[frameOverhead+c.inj.Intn(payLen)] ^= 0x40
	}
	if c.inj.Should(faults.NetTornFrame) && len(frame) > 1 {
		// Peer dies mid-write: a prefix lands, then the connection breaks.
		cut := 1 + c.inj.Intn(len(frame)-1)
		c.bw.Write(frame[:cut]) //nolint:errcheck
		c.bw.Flush()            //nolint:errcheck
		c.c.Close()             //nolint:errcheck
		return fmt.Errorf("netproto: torn frame: %w", faults.ErrInjected)
	}

	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	return c.bw.Flush()
}

// ReadMsg reads one frame and returns its type and body. The body aliases
// an internal buffer valid until the next ReadMsg. A CRC or structural
// failure returns an error wrapping ErrBadFrame; a cleanly closed peer
// returns io.EOF, a peer lost mid-frame io.ErrUnexpectedEOF.
func (c *Conn) ReadMsg() (MsgType, []byte, error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	payLen := binary.LittleEndian.Uint32(c.hdr[0:4])
	sum := binary.LittleEndian.Uint32(c.hdr[4:8])
	if payLen < 1 || payLen > MaxFrame {
		return 0, nil, fmt.Errorf("%w: implausible frame length %d", ErrBadFrame, payLen)
	}
	if cap(c.rb) < int(payLen) {
		c.rb = make([]byte, payLen)
	}
	payload := c.rb[:payLen]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return 0, nil, fmt.Errorf("%w: checksum mismatch: got %08x want %08x", ErrBadFrame, got, sum)
	}
	return MsgType(payload[0]), payload[1:], nil
}

// --- message codecs ---------------------------------------------------------
//
// Bodies are hand-encoded little-endian (no reflection on the wire). Each
// Encode appends to dst and returns the extended slice; each Decode
// validates lengths and returns a descriptive error wrapping ErrBadFrame.

// Hello is the dialer's handshake. Epoch and LastSeq are meaningful for
// RoleReplica: the leader lineage epoch and newest WAL sequence of the
// state the replica already holds (both 0 on a cold replica or a client).
type Hello struct {
	Version uint16
	Role    Role
	Epoch   uint64
	LastSeq uint64
}

// Encode appends the hello body to dst.
func (h Hello) Encode(dst []byte) []byte {
	dst = append(dst, Magic...)
	dst = appendU16(dst, h.Version)
	dst = append(dst, byte(h.Role))
	dst = appendU64(dst, h.Epoch)
	return appendU64(dst, h.LastSeq)
}

// DecodeHello parses a hello body. A wrong magic is a confused peer
// (ErrBadFrame); a wrong version is ErrVersionMismatch — the caller replies
// with CodeVersionMismatch so the peer can log both versions.
func DecodeHello(b []byte) (Hello, error) {
	if len(b) != len(Magic)+2+1+8+8 {
		return Hello{}, fmt.Errorf("%w: hello body has %d bytes", ErrBadFrame, len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return Hello{}, fmt.Errorf("%w: bad hello magic", ErrBadFrame)
	}
	b = b[len(Magic):]
	h := Hello{
		Version: binary.LittleEndian.Uint16(b),
		Role:    Role(b[2]),
		Epoch:   binary.LittleEndian.Uint64(b[3:]),
		LastSeq: binary.LittleEndian.Uint64(b[11:]),
	}
	if h.Version != Version {
		return h, fmt.Errorf("%w: peer speaks v%d, this node v%d", ErrVersionMismatch, h.Version, Version)
	}
	if h.Role != RoleClient && h.Role != RoleReplica {
		return h, fmt.Errorf("%w: unknown role %d", ErrBadFrame, h.Role)
	}
	return h, nil
}

// Welcome accepts a handshake. Resume (replica role only) means the leader
// will tail its WAL from the replica's LastSeq instead of shipping a full
// snapshot; Epoch is the leader lineage epoch the stream is fenced to;
// LastSeq the leader's current WAL tail.
type Welcome struct {
	Version uint16
	Resume  bool
	Epoch   uint64
	LastSeq uint64
}

// Encode appends the welcome body to dst.
func (w Welcome) Encode(dst []byte) []byte {
	dst = appendU16(dst, w.Version)
	if w.Resume {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendU64(dst, w.Epoch)
	return appendU64(dst, w.LastSeq)
}

// DecodeWelcome parses a welcome body.
func DecodeWelcome(b []byte) (Welcome, error) {
	if len(b) != 2+1+8+8 {
		return Welcome{}, fmt.Errorf("%w: welcome body has %d bytes", ErrBadFrame, len(b))
	}
	return Welcome{
		Version: binary.LittleEndian.Uint16(b),
		Resume:  b[2] != 0,
		Epoch:   binary.LittleEndian.Uint64(b[3:]),
		LastSeq: binary.LittleEndian.Uint64(b[11:]),
	}, nil
}

// ErrorMsg is a typed protocol error.
type ErrorMsg struct {
	Code uint16
	Msg  string
}

// Error implements the error interface so an ErrorMsg can propagate as the
// session error.
func (e ErrorMsg) Error() string {
	return fmt.Sprintf("netproto: peer error %d: %s", e.Code, e.Msg)
}

// Encode appends the error body to dst.
func (e ErrorMsg) Encode(dst []byte) []byte {
	dst = appendU16(dst, e.Code)
	return appendString(dst, e.Msg)
}

// DecodeError parses an error body.
func DecodeError(b []byte) (ErrorMsg, error) {
	if len(b) < 2 {
		return ErrorMsg{}, fmt.Errorf("%w: error body has %d bytes", ErrBadFrame, len(b))
	}
	msg, rest, err := takeString(b[2:])
	if err != nil || len(rest) != 0 {
		return ErrorMsg{}, fmt.Errorf("%w: malformed error body", ErrBadFrame)
	}
	return ErrorMsg{Code: binary.LittleEndian.Uint16(b), Msg: msg}, nil
}

// PredictRequest asks for a plan prediction at one plan-space point.
type PredictRequest struct {
	ID       uint64
	Template string
	Point    []float64
}

// Encode appends the request body to dst.
func (p PredictRequest) Encode(dst []byte) []byte {
	dst = appendU64(dst, p.ID)
	dst = appendString(dst, p.Template)
	dst = appendU16(dst, uint16(len(p.Point)))
	for _, v := range p.Point {
		dst = appendU64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodePredictRequest parses a predict request body.
func DecodePredictRequest(b []byte) (PredictRequest, error) {
	if len(b) < 8 {
		return PredictRequest{}, fmt.Errorf("%w: predict body has %d bytes", ErrBadFrame, len(b))
	}
	p := PredictRequest{ID: binary.LittleEndian.Uint64(b)}
	tmpl, rest, err := takeString(b[8:])
	if err != nil {
		return PredictRequest{}, err
	}
	p.Template = tmpl
	if len(rest) < 2 {
		return PredictRequest{}, fmt.Errorf("%w: predict body truncated", ErrBadFrame)
	}
	dims := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) != 8*dims {
		return PredictRequest{}, fmt.Errorf("%w: predict dims %d disagree with body", ErrBadFrame, dims)
	}
	p.Point = make([]float64, dims)
	for i := range p.Point {
		p.Point[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	return p, nil
}

// PredictResult answers one PredictRequest. Epoch is the template's
// drift-reset epoch and ModelVersion the predicted-from model snapshot's
// version — together they identify exactly which learned state produced
// the prediction, which is what the leader/replica equivalence contract is
// stated against. Fingerprint carries the plan fingerprint on StatusOK and
// ErrMsg a diagnostic otherwise.
type PredictResult struct {
	ID           uint64
	Status       uint8
	Plan         int64
	Confidence   float64
	Cost         float64
	CostKnown    bool
	Epoch        int64
	ModelVersion uint64
	Fingerprint  string
	ErrMsg       string
}

// Encode appends the result body to dst.
func (p PredictResult) Encode(dst []byte) []byte {
	dst = appendU64(dst, p.ID)
	dst = append(dst, p.Status)
	dst = appendU64(dst, uint64(p.Plan))
	dst = appendU64(dst, math.Float64bits(p.Confidence))
	dst = appendU64(dst, math.Float64bits(p.Cost))
	if p.CostKnown {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendU64(dst, uint64(p.Epoch))
	dst = appendU64(dst, p.ModelVersion)
	dst = appendString(dst, p.Fingerprint)
	return appendString(dst, p.ErrMsg)
}

// DecodePredictResult parses a predict result body.
func DecodePredictResult(b []byte) (PredictResult, error) {
	const fixed = 8 + 1 + 8 + 8 + 8 + 1 + 8 + 8
	if len(b) < fixed {
		return PredictResult{}, fmt.Errorf("%w: predict result body has %d bytes", ErrBadFrame, len(b))
	}
	le := binary.LittleEndian
	p := PredictResult{
		ID:           le.Uint64(b),
		Status:       b[8],
		Plan:         int64(le.Uint64(b[9:])),
		Confidence:   math.Float64frombits(le.Uint64(b[17:])),
		Cost:         math.Float64frombits(le.Uint64(b[25:])),
		CostKnown:    b[33] != 0,
		Epoch:        int64(le.Uint64(b[34:])),
		ModelVersion: le.Uint64(b[42:]),
	}
	fp, rest, err := takeString(b[fixed:])
	if err != nil {
		return PredictResult{}, err
	}
	msg, rest, err := takeString(rest)
	if err != nil || len(rest) != 0 {
		return PredictResult{}, fmt.Errorf("%w: malformed predict result body", ErrBadFrame)
	}
	p.Fingerprint, p.ErrMsg = fp, msg
	return p, nil
}

// Err converts a non-OK, non-NULL status into an error (nil for StatusOK
// and StatusNoPrediction, which are answers, not failures).
func (p PredictResult) Err() error {
	switch p.Status {
	case StatusOK, StatusNoPrediction:
		return nil
	case StatusUnknownTemplate:
		return fmt.Errorf("netproto: unknown template: %s", p.ErrMsg)
	case StatusBadRequest:
		return fmt.Errorf("netproto: bad request: %s", p.ErrMsg)
	case StatusNotReady:
		return errors.New("netproto: replica holds no state yet")
	}
	return fmt.Errorf("netproto: predict status %d: %s", p.Status, p.ErrMsg)
}

// Snapshot is a full state transfer: State holds the encoded system state
// (internal/snapshot, the same bytes a checkpoint holds), opaque to the
// wire layer. BaseSeq is the WAL sequence floor the snapshot covers — the
// shipped tail starts there, and per-template applied-sequence watermarks
// inside the learner encodings make the overlap idempotent.
type Snapshot struct {
	Epoch   uint64
	BaseSeq uint64
	State   []byte
}

// Encode appends the snapshot body to dst.
func (s Snapshot) Encode(dst []byte) []byte {
	dst = appendU64(dst, s.Epoch)
	dst = appendU64(dst, s.BaseSeq)
	dst = appendU32(dst, uint32(len(s.State)))
	return append(dst, s.State...)
}

// DecodeSnapshot parses a snapshot body. State is a copy (safe to retain
// past the next ReadMsg).
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < 8+8+4 {
		return nil, fmt.Errorf("%w: snapshot body has %d bytes", ErrBadFrame, len(b))
	}
	le := binary.LittleEndian
	if n := le.Uint32(b[16:]); uint64(n) != uint64(len(b)-20) {
		return nil, fmt.Errorf("%w: snapshot state has %d bytes, header says %d", ErrBadFrame, len(b)-20, n)
	}
	return &Snapshot{
		Epoch:   le.Uint64(b),
		BaseSeq: le.Uint64(b[8:]),
		State:   append([]byte(nil), b[20:]...),
	}, nil
}

// Heartbeat carries liveness plus a fenced sequence number: leader -> the
// WAL tail seq; replica -> the applied seq acknowledgement.
type Heartbeat struct {
	Seq   uint64
	Epoch uint64
}

// Encode appends the heartbeat body to dst.
func (h Heartbeat) Encode(dst []byte) []byte {
	dst = appendU64(dst, h.Seq)
	return appendU64(dst, h.Epoch)
}

// DecodeHeartbeat parses a heartbeat body.
func DecodeHeartbeat(b []byte) (Heartbeat, error) {
	if len(b) != 16 {
		return Heartbeat{}, fmt.Errorf("%w: heartbeat body has %d bytes", ErrBadFrame, len(b))
	}
	return Heartbeat{
		Seq:   binary.LittleEndian.Uint64(b),
		Epoch: binary.LittleEndian.Uint64(b[8:]),
	}, nil
}

// --- primitive append/take helpers ------------------------------------------

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// appendString appends a u16-length-prefixed string (the WAL's template
// name convention). Strings longer than 64 KiB are truncated — protocol
// strings are names, fingerprints and diagnostics, all far shorter.
func appendString(dst []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...)
}

// takeString consumes a u16-length-prefixed string from b.
func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("%w: truncated string length", ErrBadFrame)
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("%w: truncated string body (%d of %d bytes)", ErrBadFrame, len(b), n)
	}
	return string(b[:n]), b[n:], nil
}
