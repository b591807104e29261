// Package wire carries the master–slave protocol over TCP, so the paper's
// slaves can run as separate OS processes (cmd/mkpworker) instead of
// goroutines. It implements both sides of the transport seam: the master
// side (Fleet, a transport.Hub built by Dial for a fixed worker roster or by
// ListenFleet for workers that join) multiplexes all member connections into
// one mailbox for node 0, and the worker side (Session, a
// transport.Transport built by Accept or JoinFleet) is the single connection
// back to the master.
//
// Framing: every message is one length-prefixed frame with a fixed 14-byte
// header —
//
//	offset 0  'M' 'K'        magic
//	offset 2  version (u8)   proto.Version; mismatches are rejected
//	offset 3  kind (u8)      message kind (start, result, stop, ...)
//	offset 4  from (u8)      sending node
//	offset 5  to (u8)        receiving node
//	offset 6  length (u32le) payload byte count
//	offset 10 crc (u32le)    CRC-32C over header[0:10] + payload
//
// followed by the payload encoded by internal/transport/proto. The CRC covers
// everything except itself, so a truncated, bit-flipped or misaligned frame
// is rejected rather than mis-decoded; a reader that sees a bad frame
// abandons the connection, because a byte stream that has lost framing can
// never be trusted again.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/proto"
)

// frameError marks a frame-integrity failure — bad magic, version skew,
// oversized length, checksum mismatch — as opposed to a plain I/O error.
// Readers count these on wire_frame_errors_total so injected or real
// corruption is distinguishable from ordinary connection teardown.
type frameError struct{ msg string }

func (e *frameError) Error() string { return e.msg }

func frameErrorf(format string, args ...any) error {
	return &frameError{msg: fmt.Sprintf(format, args...)}
}

func isFrameError(err error) bool {
	var fe *frameError
	return errors.As(err, &fe)
}

const (
	magic0 = 'M'
	magic1 = 'K'

	headerLen = 14
	// maxPayload bounds one frame's payload. The biggest real payload is a
	// Hello carrying the instance (m·n float64 weights); 64 MiB covers every
	// benchmark family with orders of magnitude to spare while keeping a
	// corrupted length field from provoking a giant allocation.
	maxPayload = 64 << 20
)

// Frame kinds. Start..Heartbeat and Join..Gossip map one-to-one onto the
// proto tags; Hello and Ready exist only during the handshake and never
// reach a transport. Join opens the elastic handshake (worker -> fleet
// master), Leave closes a membership gracefully, and Gossip carries the
// epoch-stamped incumbent both ways. Kind 11 was the version-2 Steal offer;
// since version 4 it is unknown and kills the connection like any other.
const (
	kindStart byte = iota + 1
	kindResult
	kindStop
	kindStopped
	kindHeartbeat
	kindHello
	kindReady
	kindJoin
	kindLeave
	kindGossip
)

// kindOf maps a proto tag to its frame kind.
func kindOf(tag string) (byte, error) {
	switch tag {
	case proto.TagStart:
		return kindStart, nil
	case proto.TagResult:
		return kindResult, nil
	case proto.TagStop:
		return kindStop, nil
	case proto.TagStopped:
		return kindStopped, nil
	case proto.TagHeartbeat:
		return kindHeartbeat, nil
	case proto.TagJoin:
		return kindJoin, nil
	case proto.TagLeave:
		return kindLeave, nil
	case proto.TagGossip:
		return kindGossip, nil
	}
	return 0, fmt.Errorf("wire: no frame kind for tag %q", tag)
}

// tagOf maps a frame kind back to its proto tag.
func tagOf(kind byte) (string, error) {
	switch kind {
	case kindStart:
		return proto.TagStart, nil
	case kindResult:
		return proto.TagResult, nil
	case kindStop:
		return proto.TagStop, nil
	case kindStopped:
		return proto.TagStopped, nil
	case kindHeartbeat:
		return proto.TagHeartbeat, nil
	case kindJoin:
		return proto.TagJoin, nil
	case kindLeave:
		return proto.TagLeave, nil
	case kindGossip:
		return proto.TagGossip, nil
	}
	return "", fmt.Errorf("wire: unknown frame kind %d", kind)
}

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame serializes one frame into dst.
func appendFrame(dst []byte, kind, from, to byte, payload []byte) ([]byte, error) {
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("wire: payload of %d bytes exceeds the %d-byte frame cap", len(payload), maxPayload)
	}
	off := len(dst)
	dst = append(dst, magic0, magic1, proto.Version, kind, from, to)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	crc := crc32.Checksum(dst[off:off+10], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return append(dst, payload...), nil
}

// writeFrame sends one frame on w.
func writeFrame(w io.Writer, kind, from, to byte, payload []byte) error {
	buf, err := appendFrame(make([]byte, 0, headerLen+len(payload)), kind, from, to, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// readFrame reads and validates one frame from r. Any validation failure —
// bad magic, version skew, oversized length, checksum mismatch — is a hard
// error: the byte stream can no longer be trusted to be frame-aligned.
func readFrame(r io.Reader) (kind, from, to byte, payload []byte, err error) {
	var hdr [headerLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, 0, 0, nil, frameErrorf("wire: bad frame magic %#02x%02x", hdr[0], hdr[1])
	}
	if hdr[2] != proto.Version {
		return 0, 0, 0, nil, frameErrorf("wire: protocol version %d, want %d", hdr[2], proto.Version)
	}
	length := binary.LittleEndian.Uint32(hdr[6:10])
	if length > maxPayload {
		return 0, 0, 0, nil, frameErrorf("wire: frame payload of %d bytes exceeds the %d-byte cap", length, maxPayload)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[10:14])
	payload = make([]byte, length)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("wire: truncated frame payload: %w", err)
	}
	crc := crc32.Checksum(hdr[:10], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != wantCRC {
		return 0, 0, 0, nil, frameErrorf("wire: frame checksum mismatch (got %#08x, want %#08x)", crc, wantCRC)
	}
	return hdr[3], hdr[4], hdr[5], payload, nil
}

// encodeMessage encodes payload for an n-item instance and frames it.
func encodeMessage(from, to int, tag string, payload any, n int, mx wireMetrics) ([]byte, error) {
	kind, err := kindOf(tag)
	if err != nil {
		return nil, err
	}
	began := time.Now()
	data, err := proto.EncodePayload(tag, payload, n)
	if err != nil {
		return nil, err
	}
	mx.encodeDur.Observe(time.Since(began).Seconds())
	return appendFrame(make([]byte, 0, headerLen+len(data)), kind, byte(from), byte(to), data)
}

// readMessage reads the next frame from br and decodes its payload for an
// n-item instance. Any error leaves the stream untrustworthy, so the caller
// abandons the connection; integrity failures (a bad frame, an unknown kind,
// an undecodable payload), unlike plain I/O errors, are counted on
// wire_frame_errors_total.
func readMessage(br *bufio.Reader, n int, mx wireMetrics) (transport.Message, error) {
	kind, from, to, data, err := readFrame(br)
	if err != nil {
		if isFrameError(err) {
			mx.frameErrors.Inc()
		}
		return transport.Message{}, err
	}
	tag, err := tagOf(kind)
	var payload any
	if err == nil {
		began := time.Now()
		if payload, err = proto.DecodePayload(tag, data, n); err == nil {
			mx.decodeDur.Observe(time.Since(began).Seconds())
		}
	}
	if err != nil {
		mx.frameErrors.Inc()
		return transport.Message{}, err
	}
	return transport.Message{From: int(from), To: int(to), Tag: tag, Payload: payload, Size: len(data)}, nil
}
