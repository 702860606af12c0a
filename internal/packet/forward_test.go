package packet

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

// TestInPlaceEditsMatchDecodedOps checks each in-place edit against its
// decoded counterpart for every slot count and pointer value: the
// finders accept exactly what the decoders accept, and the edited
// option data equals the decoded option after Record/Advance,
// serialized again.
func TestInPlaceEditsMatchDecodedOps(t *testing.T) {
	hop := netip.MustParseAddr("192.0.2.1")
	addrs := []netip.Addr{hop, netip.MustParseAddr("10.0.0.3"), netip.MustParseAddr("::1"), {}}
	slots := func(ptr byte, n, size int) []byte {
		d := []byte{ptr}
		for i := 0; i < n*size/4; i++ {
			d = append(d, 10, 0, 0, 3) // every address slot names 10.0.0.3
		}
		return d
	}
	for n := 0; n <= MaxRRSlots; n++ {
		for p := 0; p < 48; p++ {
			for _, ad := range addrs {
				// Record Route.
				h := IPv4{Options: []Option{{Type: OptNOP}, {Type: OptRecordRoute, Data: slots(byte(p), n, 4)}}}
				var rr RecordRoute
				_, err := h.RecordRouteOption(&rr)
				data, ok := h.RecordRouteData()
				if ok != (err == nil) {
					t.Fatalf("rr %d slots ptr %d: finder ok=%v, decoder err=%v", n, p, ok, err)
				}
				if ok {
					stamped, want := StampRecordRoute(data, ad), rr.Record(ad)
					opt, _ := rr.Option()
					if stamped != want || !bytes.Equal(data, opt.Data) {
						t.Fatalf("rr %d slots ptr %d addr %v: stamped=%v %x, Record=%v %x", n, p, ad, stamped, data, want, opt.Data)
					}
				}

				// Source routes.
				h = IPv4{Options: []Option{{Type: OptSSRR, Data: slots(byte(p), n, 4)}}}
				var sr SourceRoute
				_, err = h.SourceRouteOption(&sr)
				data, ok = h.SourceRouteData()
				if ok != (err == nil) {
					t.Fatalf("sr %d slots ptr %d: finder ok=%v, decoder err=%v", n, p, ok, err)
				}
				if ok {
					next, adv := AdvanceSourceRoute(data, ad)
					wantNext, wantAdv := sr.Advance(ad)
					opt, _ := sr.Option()
					if next != wantNext || adv != wantAdv || !bytes.Equal(data, opt.Data) {
						t.Fatalf("sr %d slots ptr %d addr %v: %v %v %x, Advance %v %v %x", n, p, ad, next, adv, data, wantNext, wantAdv, opt.Data)
					}
				}
			}
		}
	}

	for flag := 0; flag < 4; flag++ {
		size := TSFlag(flag).slotSize()
		for n := 0; 2+n*size <= MaxOptionsLen-2; n++ {
			for p := 0; p < 48; p++ {
				for _, ov := range []byte{0, 14, 15} {
					for _, ad := range addrs {
						d := slots(byte(p), n, size)
						d = append(d[:1], append([]byte{ov<<4 | byte(flag)}, d[1:]...)...)
						h := IPv4{Options: []Option{{Type: OptTimestamp, Data: d}}}
						var ts Timestamp
						_, err := h.TimestampOption(&ts)
						data, ok := h.TimestampData()
						if ok != (err == nil) {
							t.Fatalf("ts flag %d %d slots ptr %d: finder ok=%v, decoder err=%v", flag, n, p, ok, err)
						}
						if !ok {
							continue
						}
						stamped, want := StampTimestamp(data, ad, 0x01020304), ts.Record(ad, 0x01020304)
						opt, _ := ts.Option()
						if stamped != want || !bytes.Equal(data, opt.Data) {
							t.Fatalf("ts flag %d %d slots ptr %d ov %d addr %v: stamped=%v %x, Record=%v %x",
								flag, n, p, ov, ad, stamped, data, want, opt.Data)
						}
					}
				}
			}
		}
	}
}

// TestRewriteMatchesAppendTo checks Rewrite against a re-encode of the
// edited header: TTL, destination and checksum written back, the
// datagram trimmed to TotalLength.
func TestRewriteMatchesAppendTo(t *testing.T) {
	hdr := IPv4{TOS: 3, ID: 9, Flags: FlagDontFragment, TTL: 2, Protocol: ProtocolICMP,
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}
	if err := hdr.SetRecordRoute(NewRecordRoute(4)); err != nil {
		t.Fatal(err)
	}
	wire, err := hdr.Marshal(NewEchoRequest(1, 2, []byte("data")).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	in := append(bytes.Clone(wire), 0xff, 0xff) // bytes past TotalLength
	var ip IPv4
	payload, err := ip.Decode(in)
	if err != nil {
		t.Fatal(err)
	}
	ip.TTL--
	ip.Dst = netip.MustParseAddr("198.51.100.4")
	want, err := ip.AppendTo(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	got := ip.Rewrite(in)
	if !bytes.Equal(got, want) {
		t.Fatalf("Rewrite = %x\nAppendTo = %x", got, want)
	}
	if Checksum(got[:ip.HeaderLen()]) != 0 {
		t.Fatalf("checksum %#04x does not verify", binary.BigEndian.Uint16(got[10:]))
	}
}
