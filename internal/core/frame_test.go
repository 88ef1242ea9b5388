package core

import "testing"

// TestFramePayloadLimit pins the frame length check every frame writer
// runs before it writes: the uint32 length field holds 2^32-1, and one
// byte more must be refused rather than wrapped. Only the length is
// checked, so no 4 GiB payload is allocated.
func TestFramePayloadLimit(t *testing.T) {
	if err := checkFramePayload(1<<32 - 1); err != nil {
		t.Fatalf("largest representable payload refused: %v", err)
	}
	if err := checkFramePayload(1 << 32); err == nil {
		t.Fatal("payload of 2^32 bytes accepted; its frame length would wrap to 0")
	}
}
