package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/transport/proto"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{0xA5}, 300)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := writeFrame(&buf, kindResult, 3, 0, p); err != nil {
			t.Fatal(err)
		}
		kind, from, to, back, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if kind != kindResult || from != 3 || to != 0 || !bytes.Equal(back, p) {
			t.Fatalf("frame changed in transit: kind=%d from=%d to=%d payload %d bytes", kind, from, to, len(back))
		}
	}
}

func TestFrameBackToBack(t *testing.T) {
	var buf bytes.Buffer
	for i := byte(1); i <= 3; i++ {
		if err := writeFrame(&buf, kindStart, 0, i, []byte{i, i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(1); i <= 3; i++ {
		_, _, to, payload, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if to != i || !bytes.Equal(payload, []byte{i, i + 1}) {
			t.Fatalf("frame %d misread: to=%d payload=%v", i, to, payload)
		}
	}
}

// TestFrameBitFlipsRejected flips every bit of a complete frame: the CRC (or
// a structural guard upstream of it) must reject every single-bit corruption
// — none may decode as a valid frame.
func TestFrameBitFlipsRejected(t *testing.T) {
	frame, err := appendFrame(nil, kindHeartbeat, 2, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < len(frame)*8; bit++ {
		mut := append([]byte(nil), frame...)
		mut[bit/8] ^= 1 << uint(bit%8)
		if _, _, _, _, err := readFrame(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at %d accepted", bit)
		}
	}
}

func TestFrameTruncationRejected(t *testing.T) {
	frame, err := appendFrame(nil, kindStop, 0, 1, []byte{9, 9})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(frame); k++ {
		if _, _, _, _, err := readFrame(bytes.NewReader(frame[:k])); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte frame accepted", k, len(frame))
		}
	}
}

// TestFrameVersionSkewRejected crafts a frame from a hypothetical future
// codec version with a VALID checksum: the version gate alone must reject it,
// because skew is an operator error, not a negotiation.
func TestFrameVersionSkewRejected(t *testing.T) {
	// Version-1 is the live downgrade case: a pre-elastic (v1) worker dialing
	// a v2 fleet must be refused at the first frame.
	for _, version := range []byte{proto.Version + 1, proto.Version - 1} {
		payload := []byte{1, 2, 3}
		hdr := []byte{magic0, magic1, version, kindStart, 0, 1}
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
		crc := crc32.Checksum(hdr, castagnoli)
		crc = crc32.Update(crc, castagnoli, payload)
		hdr = binary.LittleEndian.AppendUint32(hdr, crc)
		frame := append(hdr, payload...)

		_, _, _, _, err := readFrame(bytes.NewReader(frame))
		if err == nil {
			t.Fatalf("version-%d frame accepted (ours is %d)", version, proto.Version)
		}
		if !strings.Contains(err.Error(), "version") {
			t.Fatalf("skew rejected for the wrong reason: %v", err)
		}
	}
}

// TestFrameOversizedLengthRejected: a corrupted length field must be rejected
// by the cap before any allocation, even with a matching checksum.
func TestFrameOversizedLengthRejected(t *testing.T) {
	hdr := []byte{magic0, magic1, proto.Version, kindStart, 0, 1}
	hdr = binary.LittleEndian.AppendUint32(hdr, maxPayload+1)
	crc := crc32.Checksum(hdr, castagnoli)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc)

	_, _, _, _, err := readFrame(bytes.NewReader(hdr))
	if err == nil {
		t.Fatal("oversized length accepted")
	}
	if !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversize rejected for the wrong reason: %v", err)
	}
}

func TestFrameBadMagicRejected(t *testing.T) {
	frame, err := appendFrame(nil, kindReady, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	frame[0] = 'X'
	if _, _, _, _, err := readFrame(bytes.NewReader(frame)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestAppendFrameRejectsOversizedPayload(t *testing.T) {
	if _, err := appendFrame(nil, kindStart, 0, 1, make([]byte, maxPayload+1)); err == nil {
		t.Fatal("oversized payload encoded")
	}
}

func TestKindTagMapping(t *testing.T) {
	for _, tag := range []string{
		proto.TagStart, proto.TagResult, proto.TagStop, proto.TagStopped, proto.TagHeartbeat,
		proto.TagJoin, proto.TagLeave, proto.TagGossip,
	} {
		kind, err := kindOf(tag)
		if err != nil {
			t.Fatal(err)
		}
		back, err := tagOf(kind)
		if err != nil {
			t.Fatal(err)
		}
		if back != tag {
			t.Fatalf("tag %q mapped to kind %d mapped back to %q", tag, kind, back)
		}
	}
	if _, err := kindOf("rumor"); err == nil {
		t.Fatal("unknown tag mapped")
	}
	if _, err := tagOf(kindHello); err == nil {
		t.Fatal("handshake kind leaked into the transport tags")
	}
	if _, err := tagOf(200); err == nil {
		t.Fatal("unknown kind mapped")
	}
}
