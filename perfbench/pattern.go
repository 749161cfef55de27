package main

import "encoding/binary"

// blockSize is the transfer size of every READ and WRITE the workloads
// issue, and the granularity of the content pattern.
const blockSize = 32 * 1024

// Every 32 KiB block the benchmark writes carries a self-describing pattern:
// the first word names the file and generation, every other word is a hash
// of (seed, file, generation, block, word). A reader can therefore check a
// block against one exact version, or — where concurrent writers make the
// version legitimately unknown — recover the version from the header and
// check the rest against it.

func mix(x uint64) uint64 {
	x ^= x >> 31
	x *= 0x7fb5d329728ea185
	x ^= x >> 27
	x *= 0x81dadef4bc2dd44d
	x ^= x >> 33
	return x
}

func blockKey(seed uint64, file, gen uint32, block int) uint64 {
	return mix(seed ^ mix(uint64(file)<<32|uint64(gen)) ^ uint64(block)*0x9e3779b97f4a7c15)
}

func header(file, gen uint32) uint64 { return uint64(file)<<32 | uint64(gen) }

// fillBlock writes the pattern of (file, gen, block) into b, which must be
// a whole number of 8-byte words.
func fillBlock(b []byte, seed uint64, file, gen uint32, block int) {
	k := blockKey(seed, file, gen, block)
	binary.LittleEndian.PutUint64(b, header(file, gen))
	for i := 8; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], mix(k+uint64(i)))
	}
}

// checkBlock reports whether b holds exactly the pattern of (file, gen,
// block).
func checkBlock(b []byte, seed uint64, file, gen uint32, block int) bool {
	if len(b) < 8 || binary.LittleEndian.Uint64(b) != header(file, gen) {
		return false
	}
	k := blockKey(seed, file, gen, block)
	for i := 8; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != mix(k+uint64(i)) {
			return false
		}
	}
	return true
}

// blockGen reads the generation a block's header claims.
func blockGen(b []byte) uint32 {
	if len(b) < 8 {
		return 0
	}
	return uint32(binary.LittleEndian.Uint64(b))
}

// fileContent builds a whole file of the given version.
func fileContent(size int, seed uint64, file, gen uint32) []byte {
	b := make([]byte, size)
	for off := 0; off < size; off += blockSize {
		fillBlock(b[off:min(off+blockSize, size)], seed, file, gen, off/blockSize)
	}
	return b
}
