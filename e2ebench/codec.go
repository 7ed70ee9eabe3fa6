package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Every value the generator stores is self-describing, so any reply
// can be checked without keeping a copy of what was written:
//
//	[0:4)   CRC32 (IEEE) of the body, big-endian
//	[4:6)   key length, big-endian
//	[6:6+k) the key
//	[6+k:)  the body
const valueHeader = 6

// keyName returns the memcached key of record i.
func keyName(i int) string { return fmt.Sprintf("user%08d", i) }

// bodyStart returns the offset of the body in a value stored under key.
func bodyStart(key string) int { return valueHeader + len(key) }

// encodeValue fills v (its full length is the record size) with key,
// a deterministic pseudo-random body drawn from stream, and the CRC.
func encodeValue(v []byte, key string, stream uint64) {
	binary.BigEndian.PutUint16(v[4:6], uint16(len(key)))
	copy(v[valueHeader:], key)
	fillRandom(v[bodyStart(key):], stream)
	sealValue(v, key)
}

// sealValue recomputes the CRC after the body of v changed.
func sealValue(v []byte, key string) {
	binary.BigEndian.PutUint32(v[0:4], crc32.ChecksumIEEE(v[bodyStart(key):]))
}

// Reasons a reply value fails verification.
var (
	errShortValue = errors.New("value shorter than its header")
	errWrongKey   = errors.New("value carries another key")
	errBadCRC     = errors.New("value body fails its CRC")
)

// checkValue verifies that v was written under key and is intact.
func checkValue(v []byte, key string) error {
	if len(v) < valueHeader {
		return errShortValue
	}
	n := int(binary.BigEndian.Uint16(v[4:6]))
	if len(v) < valueHeader+n {
		return errShortValue
	}
	if string(v[valueHeader:valueHeader+n]) != key {
		return errWrongKey
	}
	if crc32.ChecksumIEEE(v[valueHeader+n:]) != binary.BigEndian.Uint32(v[0:4]) {
		return errBadCRC
	}
	return nil
}

// splitmix64 advances *s and returns the next output of the
// SplitMix64 generator: cheap, and good enough for value bodies.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fillRandom fills b with the SplitMix64 stream started at seed.
func fillRandom(b []byte, seed uint64) {
	s := seed
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, splitmix64(&s))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix64(&s))
		copy(b, tail[:])
	}
}

// streamID derives the body stream of one version of one record.
func streamID(seed int64, record, version int) uint64 {
	s := uint64(seed)
	a := splitmix64(&s) ^ uint64(record)
	b := splitmix64(&a) ^ uint64(version)
	return splitmix64(&b)
}
