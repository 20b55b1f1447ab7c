package cas

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// On-disk artifact format, version 2:
//
//	offset  size  field
//	0       4     magic "YTCA"
//	4       4     CRC-32C (Castagnoli) of everything after this field
//	8       2     format version (little-endian)
//	10      2     stage-name length n
//	12      n     stage name
//	...     2     artifact-key length k
//	...     k     artifact key (hex SHA-256)
//	...     8     payload length p
//	...     p     payload (codec-encoded artifact)
//
// The header carries the full stage name and key so a file reached
// through a sanitized or colliding path still proves which artifact it
// holds: decodeEntry verifies both against what the caller asked for,
// and any mismatch — like any truncation or checksum failure — reads
// as a miss. Trailing bytes after the payload are rejected too: a
// concatenated or doubly-written file is not a valid artifact.
//
// The version names the payload encodings as well as the header, since
// a payload does not describe itself. Version 2 changed the
// characterization payload (it carries the predictor's pair table in
// place of the chip), so a version-1 file is dropped and its stage
// re-executes rather than being decoded under the wrong layout.
const (
	magic         = "YTCA"
	formatVersion = 2
	headerMin     = 4 + 4 + 2 + 2 // magic + crc + version + name length
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeEntry renders one artifact file: header, checksum and payload.
func encodeEntry(name, key string, payload []byte) []byte {
	n := headerMin + len(name) + 2 + len(key) + 8 + len(payload)
	buf := make([]byte, 0, n)
	buf = append(buf, magic...)
	buf = append(buf, 0, 0, 0, 0) // crc placeholder
	buf = binary.LittleEndian.AppendUint16(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[8:], castagnoli))
	return buf
}

// decodeEntry validates one artifact file and returns its payload.
// wantName/wantKey are matched against the header; pass "" to skip a
// check (the fuzz target does). Every failure mode — short file, bad
// magic, checksum mismatch, unknown version, name/key mismatch,
// truncated or oversized payload — returns an error; callers treat all
// of them as a cache miss and drop the file.
func decodeEntry(data []byte, wantName, wantKey string) ([]byte, error) {
	if len(data) < headerMin {
		return nil, fmt.Errorf("cas: file too short (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("cas: bad magic %q", data[:4])
	}
	if got, want := crc32.Checksum(data[8:], castagnoli), binary.LittleEndian.Uint32(data[4:8]); got != want {
		return nil, fmt.Errorf("cas: checksum mismatch (%08x != %08x)", got, want)
	}
	if v := binary.LittleEndian.Uint16(data[8:10]); v != formatVersion {
		return nil, fmt.Errorf("cas: unsupported format version %d", v)
	}
	off := 10
	name, off, err := takeString16(data, off)
	if err != nil {
		return nil, fmt.Errorf("cas: stage name: %w", err)
	}
	key, off, err := takeString16(data, off)
	if err != nil {
		return nil, fmt.Errorf("cas: artifact key: %w", err)
	}
	if wantName != "" && name != wantName {
		return nil, fmt.Errorf("cas: stage name mismatch (%q != %q)", name, wantName)
	}
	if wantKey != "" && key != wantKey {
		return nil, fmt.Errorf("cas: artifact key mismatch")
	}
	if len(data)-off < 8 {
		return nil, fmt.Errorf("cas: truncated payload length")
	}
	plen := binary.LittleEndian.Uint64(data[off : off+8])
	off += 8
	if plen != uint64(len(data)-off) {
		return nil, fmt.Errorf("cas: payload length %d does not match %d remaining bytes", plen, len(data)-off)
	}
	return data[off:], nil
}

// takeString16 reads a uint16-length-prefixed string at off.
func takeString16(data []byte, off int) (string, int, error) {
	if len(data)-off < 2 {
		return "", off, fmt.Errorf("truncated length at offset %d", off)
	}
	n := int(binary.LittleEndian.Uint16(data[off : off+2]))
	off += 2
	if len(data)-off < n {
		return "", off, fmt.Errorf("truncated string (%d of %d bytes)", len(data)-off, n)
	}
	return string(data[off : off+n]), off + n, nil
}
