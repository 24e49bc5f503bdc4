package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
)

// reheader rewrites the envelope header so it carries the right checksum
// and length for whatever payload follows it, keeping the (possibly
// mutated) escaped tag verbatim. The fuzzer cannot solve CRC-32 itself;
// without this every mutation would stop at the checksum gate instead of
// reaching the tag parsing behind it.
func reheader(data []byte) []byte {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return data
	}
	tag := "x"
	if fields := bytes.Fields(data[:nl]); len(fields) == 4 {
		tag = string(fields[3])
	}
	payload := data[nl+1:]
	header := fmt.Sprintf("%s %08x %d %s\n", magic, crc32.ChecksumIEEE(payload), len(payload), tag)
	return append([]byte(header), payload...)
}

// FuzzDecodeEnvelope feeds arbitrary (and arbitrarily damaged) files to the
// envelope decoder that guards every store entry and every saved sweep
// spec. The contract under test: no input may panic, every rejection wraps
// ErrCorrupt, and whatever is accepted re-encodes to an envelope that
// decodes to the same payload and tag. fixHeader selects whether the
// harness repairs the checksum and length first.
func FuzzDecodeEnvelope(f *testing.F) {
	spec := encodeEnvelope("sweep-1", []byte(`{"mixes":["mcf","omnetpp"],"archs":null,"policies":["baseline","dap"],"seeds":null,"quick":true}`))
	result := encodeEnvelope("3f9a-mcf-s0", []byte(`{"mix":"mcf","agg_ipc":1.25}`))
	f.Add(spec, false)
	f.Add(spec, true)
	f.Add(result, false)
	f.Add([]byte{}, false)
	f.Add(spec[:len(spec)/2], false)                 // torn mid-payload
	f.Add(spec[:bytes.IndexByte(spec, '\n')], false) // header only, no newline
	f.Add(encodeEnvelope("a b%/c\n", nil), false)    // escaped tag, empty payload
	flip := append([]byte(nil), spec...)
	flip[len(flip)-3] ^= 0x40
	f.Add(flip, false) // payload bit-flip under a stale checksum
	f.Add(flip, true)  // payload bit-flip under a repaired checksum

	f.Fuzz(func(t *testing.T, data []byte, fixHeader bool) {
		if fixHeader {
			data = reheader(data)
		}
		payload, tag, err := decodeEnvelope(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		p2, tag2, err := decodeEnvelope(encodeEnvelope(tag, payload))
		if err != nil || tag2 != tag || !bytes.Equal(p2, payload) {
			t.Fatalf("accepted envelope does not round-trip: tag %q -> %q, err %v", tag, tag2, err)
		}
	})
}
