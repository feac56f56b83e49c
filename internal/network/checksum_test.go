package network

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"

	"aggmac/internal/frame"
)

// refChecksum is RFC 1071 as its §1 states it: a 16-bit word at a time,
// folding the carries into a 32-bit accumulator.
func refChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Paper packet sizes: a paper UDP datagram fills an 1140-byte MAC frame,
// and an MSS-1357 TCP segment carries 1357 payload bytes behind a 20-byte
// header.
const (
	udpDatagramLen = 1140 - frame.SubframeOverhead - HeaderLen
	tcpSegmentLen  = 20 + 1357
)

// The 64-bit Checksum must equal the word-at-a-time RFC 1071 sum for every
// length and alignment (ones-complement addition is width-invariant; this
// pins the unrolled implementation to the reference). The sizes cover
// every short length, odd lengths that end in a half word, the IP header,
// and the UDP and TCP datagrams the paper's runs carry.
func TestChecksumMatchesReference(t *testing.T) {
	sizes := []int{IPHeaderLen, udpDatagramLen - 1, udpDatagramLen, udpDatagramLen + 1,
		tcpSegmentLen - 1, tcpSegmentLen, 1501, 4095}
	for n := 0; n < 70; n++ {
		sizes = append(sizes, n)
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range sizes {
		b := make([]byte, n)
		for trial := 0; trial < 20; trial++ {
			rng.Read(b)
			if got, want := Checksum(b), refChecksum(b); got != want {
				t.Fatalf("Checksum(len %d) = %#x, reference %#x (bytes %x)", n, got, want, b)
			}
		}
	}
	// All-ones input exercises maximal carry folding, at odd and even
	// lengths and at the UDP datagram size.
	for _, n := range []int{61, 64, udpDatagramLen, tcpSegmentLen} {
		ones := bytes.Repeat([]byte{0xff}, n)
		if got, want := Checksum(ones), refChecksum(ones); got != want {
			t.Fatalf("Checksum(%d ones) = %#x, reference %#x", n, got, want)
		}
	}
}

// FuzzChecksum: for any bytes, Checksum equals the word-at-a-time RFC 1071
// sum.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(bytes.Repeat([]byte{0xff}, 33))
	f.Add(bytes.Repeat([]byte{0xff}, tcpSegmentLen))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe})
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := Checksum(b), refChecksum(b); got != want {
			t.Fatalf("Checksum(%x) = %#x, reference %#x", b, got, want)
		}
	})
}

// BenchmarkChecksum times the kernel on an IP-header-sized buffer, a paper
// UDP datagram and a full TCP segment.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{IPHeaderLen, udpDatagramLen, tcpSegmentLen} {
		buf := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(buf)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n))
			for b.Loop() {
				Checksum(buf)
			}
		})
	}
}
