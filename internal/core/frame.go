package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// Self-describing chunk frames (on-disk format 1). Every chunk payload
// written by a format-1 array is wrapped in a fixed 13-byte header:
//
//	offset 0: 4-byte magic "AVC1"
//	offset 4: 1-byte frame format version
//	offset 5: 4-byte payload length (little-endian uint32)
//	offset 9: 4-byte CRC32-C of the payload (little-endian)
//
// The header lets readBlob verify that the bytes at a metadata-recorded
// (file, offset, length) triple really are the frame that was committed
// there — catching torn writes, misdirected reads against a stale
// offset, and bit rot — and lets recovery distinguish a clean frame
// boundary from a torn tail. Format-0 arrays (created before frames
// existed) store raw payloads and are still readable; Reorganize and
// Compact upgrade them to format 1 when they rewrite every payload.

const (
	// formatRaw is the legacy on-disk format: raw chunk payloads, no
	// frame headers.
	formatRaw = 0
	// formatFramed wraps every chunk payload in a checksummed frame.
	formatFramed = 1

	frameMagic     = "AVC1"
	frameVersion   = 1
	frameHeaderLen = 13
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameLen returns the on-disk size of a payload of n bytes under the
// given array format.
func frameLen(format int, n int64) int64 {
	if format == formatFramed {
		return n + frameHeaderLen
	}
	return n
}

// maxFramePayload is the largest payload a frame can carry: the header
// stores the length as a uint32.
const maxFramePayload = 1<<32 - 1

// checkFramePayload refuses a payload length the frame header cannot
// represent. Encoding one anyway would wrap the length field: the
// frame would read back as a torn tail, and replay would truncate it
// together with every commit appended behind it.
func checkFramePayload(n int64) error {
	if n > maxFramePayload {
		return fmt.Errorf("core: payload of %d bytes exceeds the %d-byte frame limit", n, int64(maxFramePayload))
	}
	return nil
}

// appendFrame wraps payload in a frame and appends it to dst. It fails,
// leaving dst unchanged, when the payload is too large to frame;
// callers frame before they write, so the failure is benign.
func appendFrame(dst, payload []byte) ([]byte, error) {
	if err := checkFramePayload(int64(len(payload))); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, frameHeaderLen+len(payload))
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...), nil
}

// parseFrame validates a frame read from disk (header plus payload) and
// returns the payload. wantLen is the payload length the metadata
// recorded for this frame.
func parseFrame(buf []byte, wantLen int64) ([]byte, error) {
	if int64(len(buf)) < frameHeaderLen {
		return nil, fmt.Errorf("core: frame truncated: %d bytes", len(buf))
	}
	if string(buf[:4]) != frameMagic {
		return nil, fmt.Errorf("core: bad frame magic %q", buf[:4])
	}
	if buf[4] != frameVersion {
		return nil, fmt.Errorf("core: unsupported frame version %d", buf[4])
	}
	n := int64(binary.LittleEndian.Uint32(buf[5:9]))
	if n != wantLen {
		return nil, fmt.Errorf("core: frame length %d does not match metadata length %d", n, wantLen)
	}
	if int64(len(buf)) < frameHeaderLen+n {
		return nil, fmt.Errorf("core: frame payload truncated: %d of %d bytes", len(buf)-frameHeaderLen, n)
	}
	payload := buf[frameHeaderLen : frameHeaderLen+n]
	want := binary.LittleEndian.Uint32(buf[9:13])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("core: frame checksum mismatch: %08x != %08x", got, want)
	}
	return payload, nil
}
