package topology

import (
	"encoding/binary"
	"net/netip"
)

// Address plan: AS i owns the /16 supernet at addrBase + i<<16. Inside
// it, destination prefixes are /24s from the bottom (x.y.0.0/24,
// x.y.1.0/24, …), vantage-point hosts use the /24 at vpSlot, and
// infrastructure (link) addresses are allocated from the top downward.
// Mapping any address back to its owning AS is a shift, which keeps the
// route plane (plane.go) a set of slab lookups.
const (
	addrBase     uint32 = 0x64000000 // 100.0.0.0
	maxASes             = 4096       // keeps supernets inside 100.0.0.0/4-ish space
	vpSlot              = 250        // third octet reserved for VP hosts
	maxDestSlots        = 240
	aliasOctet          = 129    // last octet of a destination's alias
	infraTop            = 0xfffe // first infrastructure offset; later ones count down
)

// u32Addr converts a uint32 to a netip.Addr.
func u32Addr(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}

// addrU32 converts an IPv4 netip.Addr to its uint32 value.
func addrU32(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// asPlan is the per-AS address allocator.
type asPlan struct {
	base  uint32 // supernet network address
	infra uint32 // next infrastructure address offset (counts down)
}

func newASPlan(asIdx int) *asPlan {
	return &asPlan{base: addrBase + uint32(asIdx)<<16, infra: infraTop}
}

// Supernet returns the AS's /16.
func (p *asPlan) Supernet() netip.Prefix {
	return netip.PrefixFrom(u32Addr(p.base), 16)
}

// DestPrefix returns the AS's j'th advertised /24.
func (p *asPlan) DestPrefix(j int) netip.Prefix {
	if j < 0 || j >= maxDestSlots {
		panic("topology: destination slot out of range")
	}
	return netip.PrefixFrom(u32Addr(p.base+uint32(j)<<8), 24)
}

// HostOctets are the last octets destination hosts may live at; hitlist
// discovery (internal/hitlist) sweeps these candidates the way Fan &
// Heidemann's history-based selection narrowed real prefixes. 129 is
// reserved for aliases.
var HostOctets = []uint8{1, 2, 10, 33, 50, 100, 200, 254}

// DestAddr returns the destination host address in prefix j at the
// given last octet.
func (p *asPlan) DestAddr(j int, octet uint8) netip.Addr {
	return u32Addr(p.base + uint32(j)<<8 + uint32(octet))
}

// AliasAddr returns the alias address paired with destination j (the
// ".129" of the same /24 — a second interface of the same device).
func (p *asPlan) AliasAddr(j int) netip.Addr { return u32Addr(p.base + uint32(j)<<8 + aliasOctet) }

// VPAddr returns the k'th vantage-point host address in the AS.
func (p *asPlan) VPAddr(k int) netip.Addr {
	if k < 0 || k >= 250 {
		panic("topology: VP slot out of range")
	}
	return u32Addr(p.base + vpSlot<<8 + uint32(k) + 1)
}

// NextInfra allocates a fresh infrastructure (link) address from the top
// of the supernet downward.
func (p *asPlan) NextInfra() netip.Addr {
	a := u32Addr(p.base + p.infra)
	p.infra--
	if p.infra <= uint32(vpSlot)<<8|0xff {
		panic("topology: infrastructure address space exhausted")
	}
	return a
}
