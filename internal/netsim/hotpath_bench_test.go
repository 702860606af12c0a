package netsim

import (
	"net/netip"
	"testing"

	"recordroute/internal/packet"
)

// Hot-path microbenchmarks for the per-packet costs campaign runs are
// made of: FIB lookups and packet serialization into pooled buffers.
// Each pairs the optimized path with the path it replaced so
// regressions show up as a ratio, not a guess. Route-plane lookups are
// benchmarked over a built world in internal/topology
// (BenchmarkPlaneLookup).

func benchAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
}

// BenchmarkFIBLookup compares the /32 host-route fast path (the common
// case: connected-peer routes) against the longest-prefix walk a miss
// falls back to.
func BenchmarkFIBLookup(b *testing.B) {
	fib := NewFIB()
	dummy := &Iface{}
	for i := 0; i < 256; i++ {
		fib.Add(netip.PrefixFrom(benchAddr(i), 32), dummy)
	}
	for _, bits := range []int{8, 12, 16, 20, 24} {
		p, _ := netip.AddrFrom4([4]byte{172, 16, byte(bits), 0}).Prefix(bits)
		fib.Add(p, dummy)
	}
	hostDst := benchAddr(128)
	lpmDst := netip.AddrFrom4([4]byte{172, 16, 200, 9}) // matches /8 after walking 24,20,16,12

	b.Run("host-route", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fib.Lookup(hostDst) == nil {
				b.Fatal("missing host route")
			}
		}
	})
	b.Run("lpm-walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fib.Lookup(lpmDst) == nil {
				b.Fatal("missing lpm route")
			}
		}
	})
}

// BenchmarkPacketSerialize compares serialization into a recycled pool
// buffer (the forwarding path since the event loop started returning
// delivered buffers) against a fresh Marshal allocation per packet.
func BenchmarkPacketSerialize(b *testing.B) {
	n := New()
	rr := packet.NewRecordRoute(9)
	rr.Record(benchAddr(1))
	hdr := packet.IPv4{TTL: 32, Protocol: packet.ProtocolICMP, Src: benchAddr(3), Dst: benchAddr(4)}
	if err := hdr.SetRecordRoute(rr); err != nil {
		b.Fatal(err)
	}
	transport := packet.NewEchoRequest(7, 9, []byte("payload")).Marshal()

	b.Run("pooled-append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := hdr.AppendTo(n.getBuf(), transport)
			if err != nil {
				b.Fatal(err)
			}
			n.putBuf(out)
		}
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hdr.Marshal(transport); err != nil {
				b.Fatal(err)
			}
		}
	})
}
