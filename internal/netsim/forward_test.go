package netsim

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"recordroute/internal/packet"
)

var updateCorpus = flag.Bool("updatecorpus", false, "rewrite the committed seed corpus under testdata/fuzz")

// The forwarding oracle. Routers forward in place (Router.Receive); the
// reference below is the path they ran before: decode the header, turn
// each option into a RecordRoute/Timestamp/SourceRoute value, stamp
// it, serialize it back with SetRecordRoute/SetTimestamp/
// SetSourceRoute and re-encode the datagram with AppendTo. For every
// codec-built datagram both must emit the same bytes on the same links
// and bump the same router counters.

// One router between two taps: the ingress tap sends the datagram, and
// both taps record what the router emits toward them. 10.0.0.0/24 is
// routed back out the ingress link, everything else out the egress link.
var (
	fwdTapIn   = a("10.0.0.2")
	fwdIn      = a("10.0.0.1") // router's ingress interface
	fwdOut     = a("10.9.0.1") // router's egress interface
	fwdTapOut  = a("10.9.0.2")
	fwdInNet   = netip.MustParsePrefix("10.0.0.0/24")
	fwdTransit = a("192.0.2.7")
	fwdFarSrc  = a("198.51.100.9")
)

// fwdDelay is the ingress link delay: the router's clock, and so every
// timestamp it writes, reads 1500 ms.
const fwdDelay = 1500 * time.Millisecond

// fwdCase is one oracle input: a codec-built datagram and the router
// behaviour it meets. Option data (rr, ts, sr) starts at the pointer
// octet and is taken verbatim, so pointers, lengths, flags and slots
// may be anything the codec will serialize.
type fwdCase struct {
	name  string
	ttl   uint8
	sel   uint8 // bits 0-1 destination; 2 RR; 3 TS; 4 SR; 5 SR strict; 6 leading NOP; 7 UDP
	behav uint8 // bits 0 NoStampRR; 1 NoTTLDecrement; 2 NoTimeExceeded; 3 AllowSourceRoute; 4 DropOptions; 5 far source
	rr    []byte
	ts    []byte
	sr    []byte
}

const (
	selToRouterIn  = 1 // destination: the router's ingress address
	selToRouterOut = 2 // destination: the router's egress address
	selToTapIn     = 3 // destination: back out the ingress link
	selRR          = 1 << 2
	selTS          = 1 << 3
	selSR          = 1 << 4
	selStrict      = 1 << 5
	selNOP         = 1 << 6
	selUDP         = 1 << 7

	bNoStamp   = 1 << 0
	bNoTTLDec  = 1 << 1
	bNoTimeExc = 1 << 2
	bAllowSR   = 1 << 3
	bDropOpts  = 1 << 4
	bFarSource = 1 << 5
)

func (c fwdCase) behavior() RouterBehavior {
	return RouterBehavior{
		NoStampRR:        c.behav&bNoStamp != 0,
		NoTTLDecrement:   c.behav&bNoTTLDec != 0,
		NoTimeExceeded:   c.behav&bNoTimeExc != 0,
		AllowSourceRoute: c.behav&bAllowSR != 0,
		DropOptions:      c.behav&bDropOpts != 0,
	}
}

// wire builds the case's datagram with the codec. ok is false when the
// options do not fit a header.
func (c fwdCase) wire() ([]byte, bool) {
	hdr := packet.IPv4{TTL: c.ttl, ID: 77, Protocol: packet.ProtocolICMP, Src: fwdTapIn, Dst: fwdTransit}
	if c.behav&bFarSource != 0 {
		hdr.Src = fwdFarSrc
	}
	hdr.Dst = [...]netip.Addr{fwdTransit, fwdIn, fwdOut, fwdTapIn}[c.sel&3]
	if c.sel&selNOP != 0 {
		hdr.Options = append(hdr.Options, packet.Option{Type: packet.OptNOP})
	}
	if c.sel&selRR != 0 {
		hdr.Options = append(hdr.Options, packet.Option{Type: packet.OptRecordRoute, Data: c.rr})
	}
	if c.sel&selTS != 0 {
		hdr.Options = append(hdr.Options, packet.Option{Type: packet.OptTimestamp, Data: c.ts})
	}
	if c.sel&selSR != 0 {
		t := packet.OptLSRR
		if c.sel&selStrict != 0 {
			t = packet.OptSSRR
		}
		hdr.Options = append(hdr.Options, packet.Option{Type: t, Data: c.sr})
	}
	payload := packet.NewEchoRequest(5, 6, []byte("probe")).Marshal()
	if c.sel&selUDP != 0 {
		hdr.Protocol = packet.ProtocolUDP
		payload = []byte{0x82, 0x9a, 0x82, 0x9b, 0, 9, 0, 0, 'u'}
	}
	w, err := hdr.Marshal(payload)
	return w, err == nil
}

// fwdTap is a test node recording copies of everything delivered to it.
type fwdTap struct {
	name string
	got  [][]byte
}

func (t *fwdTap) Name() string { return t.name }
func (t *fwdTap) Receive(pkt []byte, _ *Iface) bool {
	t.got = append(t.got, bytes.Clone(pkt))
	return false
}
func (t *fwdTap) addIface(*Iface) {}

// fwdResult is what one router did with one datagram: the datagrams it
// emitted toward each tap, and its counters.
type fwdResult struct {
	toIn, toOut [][]byte
	counters    []string // sorted name=value, router.* only
}

func (r fwdResult) String() string {
	return fmt.Sprintf("to ingress %x\nto egress %x\ncounters %v", r.toIn, r.toOut, r.counters)
}

// forwardReal runs wire through a real Router.
func forwardReal(b RouterBehavior, wire []byte) fwdResult {
	n := New()
	in, out := &fwdTap{name: "in"}, &fwdTap{name: "out"}
	r := n.AddRouter("r", b)
	send, rIn := n.Connect(in, r, fwdTapIn, fwdIn, fwdDelay)
	rOut, _ := n.Connect(r, out, fwdOut, fwdTapOut, time.Millisecond)
	r.AddRoute(netip.MustParsePrefix("0.0.0.0/0"), rOut)
	r.AddRoute(fwdInNet, rIn)
	send.Send(append(n.getBuf(), wire...))
	n.Engine().Run()
	var res fwdResult
	res.toIn, res.toOut = in.got, out.got
	for _, c := range n.Counters() {
		if strings.HasPrefix(c, "router.") {
			res.counters = append(res.counters, c)
		}
	}
	return res
}

// reencodeRouter is the reference: Router.Receive as it was before
// forwarding in place, for a router with no faults, policers or tracer
// attached and the two links of forwardReal.
type reencodeRouter struct {
	b      RouterBehavior
	ipid   uint16
	ip     packet.IPv4
	res    fwdResult
	counts map[string]uint64
}

func forwardReference(b RouterBehavior, wire []byte) fwdResult {
	x := &reencodeRouter{b: b, ipid: seedIPID("r"), counts: map[string]uint64{}}
	x.receive(bytes.Clone(wire))
	for name, v := range x.counts {
		x.res.counters = append(x.res.counters, fmt.Sprintf("%s=%d", name, v))
	}
	sort.Strings(x.res.counters)
	return x.res
}

func (x *reencodeRouter) count(name string) { x.counts[name]++ }

func (x *reencodeRouter) emit(dst netip.Addr, pkt []byte) {
	if fwdInNet.Contains(dst) {
		x.res.toIn = append(x.res.toIn, pkt)
	} else {
		x.res.toOut = append(x.res.toOut, pkt)
	}
}

func (x *reencodeRouter) egress(dst netip.Addr) netip.Addr {
	if fwdInNet.Contains(dst) {
		return fwdIn
	}
	return fwdOut
}

func (x *reencodeRouter) receive(pkt []byte) {
	payload, err := x.ip.Decode(pkt)
	if err != nil {
		x.count("router.drop.parse")
		return
	}
	hasOpts := len(x.ip.Options) > 0
	if hasOpts {
		if x.b.DropOptions {
			x.count("router.drop.filter")
			return
		}
		x.count("router.slowpath")
	}
	if x.ip.Dst == fwdIn || x.ip.Dst == fwdOut {
		var sr packet.SourceRoute
		if found, err := x.ip.SourceRouteOption(&sr); found && err == nil && !sr.Exhausted() {
			x.forwardSourceRouted(&sr, payload)
			return
		}
		x.deliverLocal(payload)
		return
	}
	if !x.b.NoTTLDecrement {
		if x.ip.TTL <= 1 {
			if !x.b.NoTimeExceeded {
				x.sendTimeExceeded(pkt)
			} else {
				x.count("router.drop.ttl.silent")
			}
			x.count("router.ttl.expired")
			return
		}
		x.ip.TTL--
	}
	egress := x.egress(x.ip.Dst)
	if hasOpts && !x.b.NoStampRR {
		var rr packet.RecordRoute
		if found, err := x.ip.RecordRouteOption(&rr); found && err == nil && !rr.Full() {
			rr.Record(egress)
			if err := x.ip.SetRecordRoute(&rr); err != nil {
				x.count("router.drop.rrencode")
				return
			}
			x.count("router.rr.stamped")
		}
		var ts packet.Timestamp
		if found, err := x.ip.TimestampOption(&ts); found && err == nil {
			ts.Record(egress, uint32(fwdDelay.Milliseconds()))
			if err := x.ip.SetTimestamp(&ts); err != nil {
				x.count("router.drop.tsencode")
				return
			}
			x.count("router.ts.stamped")
		}
	}
	out, err := x.ip.AppendTo(nil, payload)
	if err != nil {
		x.count("router.drop.encode")
		return
	}
	x.count("router.fwd")
	x.emit(x.ip.Dst, out)
}

func (x *reencodeRouter) forwardSourceRouted(sr *packet.SourceRoute, payload []byte) {
	if !x.b.AllowSourceRoute {
		x.count("router.drop.sourceroute")
		return
	}
	newDst, ok := sr.Advance(x.egress(sr.NextHop()))
	if !ok {
		x.count("router.drop.sourceroute")
		return
	}
	x.ip.Dst = newDst
	if err := x.ip.SetSourceRoute(sr); err != nil {
		x.count("router.drop.encode")
		return
	}
	if !x.b.NoTTLDecrement && x.ip.TTL > 1 {
		x.ip.TTL--
	}
	out, err := x.ip.AppendTo(nil, payload)
	if err != nil {
		x.count("router.drop.encode")
		return
	}
	x.count("router.fwd.sourceroute")
	x.emit(x.ip.Dst, out)
}

func (x *reencodeRouter) deliverLocal(payload []byte) {
	var icmp packet.ICMP
	if x.ip.Protocol != packet.ProtocolICMP || icmp.Decode(payload) != nil || icmp.Type != packet.ICMPEchoRequest {
		x.count("router.local.ignored")
		return
	}
	x.ipid++
	hdr := packet.IPv4{TTL: 64, ID: x.ipid, Protocol: packet.ProtocolICMP, Src: x.ip.Dst, Dst: x.ip.Src}
	var rr packet.RecordRoute
	if found, err := x.ip.RecordRouteOption(&rr); found && err == nil {
		cp := rr.Clone()
		if !x.b.NoStampRR {
			cp.Record(x.ip.Dst)
		}
		if err := hdr.SetRecordRoute(cp); err != nil {
			return
		}
	}
	out, err := hdr.AppendTo(nil, icmp.EchoReply().Marshal())
	if err != nil {
		x.count("router.drop.encode")
		return
	}
	x.emit(hdr.Dst, out)
}

func (x *reencodeRouter) sendTimeExceeded(orig []byte) {
	hdrLen := int(orig[0]&0xf) * 4
	e := packet.NewError(packet.ICMPTimeExceeded, packet.CodeTTLExceeded, orig[:hdrLen], orig[hdrLen:])
	x.ipid++
	hdr := packet.IPv4{TTL: 64, ID: x.ipid, Protocol: packet.ProtocolICMP, Src: fwdIn, Dst: x.ip.Src}
	x.count("router.icmp.timeexceeded")
	out, err := hdr.AppendTo(nil, e.Marshal())
	if err != nil {
		x.count("router.drop.encode")
		return
	}
	x.emit(hdr.Dst, out)
}

// checkForward runs one case through both paths and fails on any
// difference. It returns false when the case's options do not fit.
func checkForward(t *testing.T, c fwdCase) bool {
	t.Helper()
	wire, ok := c.wire()
	if !ok {
		return false
	}
	got := forwardReal(c.behavior(), wire)
	want := forwardReference(c.behavior(), wire)
	if got.String() != want.String() {
		t.Fatalf("in-place forwarding differs from the re-encode reference\ninput %x\ngot:\n%v\nwant:\n%v", wire, got, want)
	}
	return true
}

// Option data builders for the table. Record Route slots hold
// placeholder addresses; timestamp and source-route slots name the
// addresses the caller passes (unnamed timestamp slots hold zero).
func rrData(ptr uint8, slots int) []byte {
	d := []byte{ptr}
	for i := 0; i < slots; i++ {
		d = append(d, 172, 16, 0, byte(i))
	}
	return d
}

func tsData(ptr, overflow uint8, flag packet.TSFlag, slots int, addrs ...netip.Addr) []byte {
	d := []byte{ptr, overflow<<4 | uint8(flag)}
	for i := 0; i < slots; i++ {
		if flag != packet.TSOnly {
			ad := netip.AddrFrom4([4]byte{})
			if i < len(addrs) {
				ad = addrs[i]
			}
			d = append(d, ad.AsSlice()...)
		}
		d = binary.BigEndian.AppendUint32(d, uint32(1000+i))
	}
	return d
}

func srData(ptr uint8, hops ...netip.Addr) []byte {
	d := []byte{ptr}
	for _, h := range hops {
		d = append(d, h.AsSlice()...)
	}
	return d
}

// forwardCases is the table: every field the in-place path edits, at
// and around each boundary. It doubles as the fuzz seed corpus.
func forwardCases() []fwdCase {
	var cs []fwdCase
	add := func(c fwdCase) { cs = append(cs, c) }
	for _, ttl := range []uint8{0, 1, 2, 64, 255} {
		add(fwdCase{name: fmt.Sprintf("plain ttl %d", ttl), ttl: ttl})
		add(fwdCase{name: fmt.Sprintf("rr ttl %d", ttl), ttl: ttl, sel: selRR, rr: rrData(4, 9)})
		add(fwdCase{name: fmt.Sprintf("rr ttl %d anonymous", ttl), ttl: ttl, sel: selRR, behav: bNoTTLDec, rr: rrData(8, 9)})
		add(fwdCase{name: fmt.Sprintf("rr ttl %d silent", ttl), ttl: ttl, sel: selRR, behav: bNoTimeExc, rr: rrData(8, 9)})
	}
	for slots := 0; slots <= 9; slots++ {
		for _, ptr := range []uint8{4, uint8(4 * slots), uint8(4*slots + 4), uint8(4*slots + 8), 3, 0, 5, 7, 255} {
			add(fwdCase{name: fmt.Sprintf("rr %d slots ptr %d", slots, ptr), ttl: 9, sel: selRR, rr: rrData(ptr, slots)})
		}
	}
	add(fwdCase{name: "rr not stamped", ttl: 9, sel: selRR, behav: bNoStamp, rr: rrData(4, 9)})
	add(fwdCase{name: "rr dropped by filter", ttl: 9, sel: selRR, behav: bDropOpts, rr: rrData(4, 9)})
	add(fwdCase{name: "rr ragged length", ttl: 9, sel: selRR, rr: []byte{4, 1, 2, 3, 4, 5, 6}})
	add(fwdCase{name: "rr empty data", ttl: 9, sel: selRR, rr: []byte{}})
	add(fwdCase{name: "rr after nop", ttl: 9, sel: selRR | selNOP, rr: rrData(12, 5)})
	add(fwdCase{name: "rr back out ingress", ttl: 9, sel: selRR | selToTapIn, rr: rrData(4, 3)})
	add(fwdCase{name: "udp rr", ttl: 9, sel: selRR | selUDP, rr: rrData(4, 9)})

	for _, flag := range []packet.TSFlag{packet.TSOnly, packet.TSAddr, packet.TSPrespecified} {
		slots := 4
		if flag == packet.TSOnly {
			slots = 9
		}
		size := uint8(8)
		if flag == packet.TSOnly {
			size = 4
		}
		full := 5 + size*uint8(slots)
		for _, ptr := range []uint8{5, 5 + size, full - size, full, 4, 6} {
			for _, ov := range []uint8{0, 14, 15} {
				add(fwdCase{name: fmt.Sprintf("ts %v ptr %d overflow %d", flag, ptr, ov), ttl: 9, sel: selTS,
					ts: tsData(ptr, ov, flag, slots, fwdOut, fwdTransit, fwdOut, fwdIn)})
			}
		}
		add(fwdCase{name: fmt.Sprintf("ts %v with rr", flag), ttl: 9, sel: selRR | selTS, rr: rrData(4, 1),
			ts: tsData(5, 0, flag, 3, fwdOut, fwdOut, fwdOut)})
	}
	add(fwdCase{name: "ts prespecified other hop", ttl: 9, sel: selTS, ts: tsData(5, 0, packet.TSPrespecified, 4, fwdIn)})
	add(fwdCase{name: "ts bad flag", ttl: 9, sel: selTS, ts: tsData(5, 0, packet.TSFlag(2), 2)})
	add(fwdCase{name: "ts ragged body", ttl: 9, sel: selTS, ts: []byte{5, 1, 1, 2, 3}})
	add(fwdCase{name: "ts not stamped", ttl: 9, sel: selTS, behav: bNoStamp, ts: tsData(5, 0, packet.TSAddr, 4)})

	for _, strict := range []uint8{0, selStrict} {
		for _, dst := range []uint8{selToRouterIn, selToRouterOut} {
			for _, ptr := range []uint8{4, 8, 12, 16, 3, 5} {
				route := srData(ptr, fwdTransit, fwdTapIn, fwdTransit)
				add(fwdCase{name: fmt.Sprintf("sr %d dst %d ptr %d", strict, dst, ptr), ttl: 9,
					sel: selSR | strict | dst, behav: bAllowSR, sr: route})
				add(fwdCase{name: fmt.Sprintf("sr %d dst %d ptr %d ttl 1 refused", strict, dst, ptr), ttl: 1,
					sel: selSR | strict | dst, sr: route})
			}
			add(fwdCase{name: fmt.Sprintf("sr %d dst %d with rr", strict, dst), ttl: 1,
				sel: selSR | strict | dst | selRR, behav: bAllowSR | bNoTTLDec, rr: rrData(4, 2), sr: srData(4, fwdTransit)})
		}
	}
	add(fwdCase{name: "sr no slots", ttl: 9, sel: selSR | selToRouterIn, behav: bAllowSR, sr: []byte{4}})

	for _, sel := range []uint8{selToRouterIn, selToRouterOut, selToRouterIn | selRR, selToRouterOut | selRR | selTS, selToRouterIn | selRR | selUDP} {
		for _, behav := range []uint8{0, bNoStamp, bFarSource} {
			for _, ptr := range []uint8{4, 24, 7} {
				add(fwdCase{name: fmt.Sprintf("local sel %#x behav %#x ptr %d", sel, behav, ptr), ttl: 9, sel: sel, behav: behav,
					rr: rrData(ptr, 5), ts: tsData(5, 0, packet.TSOnly, 2)})
			}
		}
	}
	add(fwdCase{name: "far source ttl expiry", ttl: 1, sel: selRR, behav: bFarSource, rr: rrData(4, 9)})
	return cs
}

func TestForwardInPlaceMatchesReencode(t *testing.T) {
	for _, c := range forwardCases() {
		t.Run(c.name, func(t *testing.T) {
			if !checkForward(t, c) {
				t.Fatal("case options do not fit a header")
			}
		})
	}
}

// TestForwardInPlaceKeepsNonCanonicalHeader pins the one documented
// difference from a re-encode: option-area bytes after an end-of-list
// octet that are not the codec's zero padding. The router forwards them
// verbatim (a re-encode would drop them and shrink the header), and
// bytes past TotalLength are trimmed either way.
func TestForwardInPlaceKeepsNonCanonicalHeader(t *testing.T) {
	rr := packet.NewRecordRoute(3)
	hdr := packet.IPv4{TTL: 9, ID: 3, Protocol: packet.ProtocolICMP, Src: fwdTapIn, Dst: fwdTransit}
	if err := hdr.SetRecordRoute(rr); err != nil {
		t.Fatal(err)
	}
	payload := packet.NewEchoRequest(1, 2, []byte("probe")).Marshal()
	canon, err := hdr.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Widen the options area by one word of junk after the EOL octet
	// that pads the 15-byte RR option, and append bytes past TotalLength.
	junk := []byte{0xaa, 0xbb, 0xcc, 0xdd}
	in := append(append(append([]byte{}, canon[:36]...), junk...), canon[36:]...)
	in[0] = 4<<4 | 10
	binary.BigEndian.PutUint16(in[2:], uint16(len(canon)+len(junk)))
	in[10], in[11] = 0, 0
	binary.BigEndian.PutUint16(in[10:], packet.Checksum(in[:40]))
	in = append(in, 0xee, 0xee, 0xee)

	want := bytes.Clone(in[:len(in)-3])
	want[8]--
	copy(want[23:], fwdOut.AsSlice())
	want[22] += 4
	want[10], want[11] = 0, 0
	binary.BigEndian.PutUint16(want[10:], packet.Checksum(want[:40]))

	got := forwardReal(RouterBehavior{}, in)
	if len(got.toOut) != 1 || !bytes.Equal(got.toOut[0], want) {
		t.Fatalf("forwarded %x\nwant verbatim %x", got.toOut, want)
	}
	ref := forwardReference(RouterBehavior{}, in)
	if len(ref.toOut) != 1 || len(ref.toOut[0]) != len(want)-len(junk) {
		t.Fatalf("reference no longer drops the junk word: %x", ref.toOut)
	}
	if got.String() == ref.String() {
		t.Fatal("non-canonical header forwarded identically to the reference")
	}
}

// TestForwardPingRRAllocatesNothing is the zero-allocation guard: with
// observability off, a ping-RR's whole round trip over five routers —
// ten in-place forwarding hops and the destination's echo reply —
// allocates nothing once the engine's slab and the buffer pool are warm.
func TestForwardPingRRAllocatesNothing(t *testing.T) {
	c := buildChain(5, nil, DefaultHostBehavior())
	c.vp.SetSniffer(nil) // the chain's sniffer copies every reply
	probe := makePingRR(t, a(vpAddrStr), a(destAddrStr), 1, 1, 64, 9)
	allocs := testing.AllocsPerRun(50, func() {
		c.vp.Inject(append(c.net.getBuf(), probe...))
		c.net.Engine().Run()
	})
	if allocs != 0 {
		t.Errorf("ping-RR round trip allocates %v times, want 0", allocs)
	}
	if got, want := c.net.Counter("router.rr.stamped"), uint64(51*8); got != want {
		t.Errorf("rr stamps = %d, want %d (nine slots: five forward hops, the destination, three reverse hops)", got, want)
	}
}

// FuzzForwardInPlace checks the oracle on arbitrary option data,
// destinations and behaviours. Inputs whose options do not fit a
// header are skipped.
func FuzzForwardInPlace(f *testing.F) {
	for _, c := range forwardCases() {
		f.Add(c.ttl, c.sel, c.behav, c.rr, c.ts, c.sr)
	}
	f.Fuzz(func(t *testing.T, ttl, sel, behav uint8, rr, ts, sr []byte) {
		checkForward(t, fwdCase{ttl: ttl, sel: sel, behav: behav, rr: rr, ts: ts, sr: sr})
	})
}

// TestUpdateForwardFuzzCorpus rewrites the committed seed corpus for
// FuzzForwardInPlace from forwardCases (run with -updatecorpus after
// changing the table). The files use the standard `go test fuzz v1`
// encoding, so the CI fuzz job starts from every table case.
func TestUpdateForwardFuzzCorpus(t *testing.T) {
	if !*updateCorpus {
		t.Skip("run with -updatecorpus to rewrite testdata/fuzz seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzForwardInPlace")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, c := range forwardCases() {
		body := fmt.Sprintf("go test fuzz v1\nbyte(%q)\nbyte(%q)\nbyte(%q)\n[]byte(%q)\n[]byte(%q)\n[]byte(%q)\n",
			c.ttl, c.sel, c.behav, c.rr, c.ts, c.sr)
		path := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
