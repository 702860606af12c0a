package packet

import (
	"encoding/binary"
	"net/netip"
)

// In-place forwarding. A router hands on the datagram it received
// instead of re-encoding it: Decode leaves every Option.Data slice
// aliasing the input, so the functions below edit the wire option where
// it lies, and IPv4.Rewrite writes back the fixed-header fields a router
// changes and refreshes the header checksum. Every edit is fixed-size.
// Each stamper leaves exactly the bytes its decoded counterpart
// (RecordRoute.Record, Timestamp.Record, SourceRoute.Advance) followed
// by a re-encode would produce, for any header the codec round-trips
// (see Rewrite for the one exception).

// RecordRouteData returns the data of the header's first Record Route
// option — the pointer octet and the slots, aliasing the decoded
// datagram — and whether that option is present and well formed, which
// is exactly when RecordRouteOption decodes it without error.
func (h *IPv4) RecordRouteData() ([]byte, bool) {
	for _, o := range h.Options {
		if o.Type == OptRecordRoute {
			return o.Data, slotsWellFormed(o.Data, 0)
		}
	}
	return nil, false
}

// TimestampData is RecordRouteData for the first Internet Timestamp
// option: ok exactly when TimestampOption decodes it without error.
func (h *IPv4) TimestampData() ([]byte, bool) {
	for _, o := range h.Options {
		if o.Type == OptTimestamp {
			d := o.Data
			if len(d) < 2 {
				return nil, false
			}
			f := TSFlag(d[1] & 0xf)
			if f != TSOnly && f != TSAddr && f != TSPrespecified {
				return nil, false
			}
			slot := f.slotSize()
			ok := (len(d)-2)%slot == 0 && d[0] >= tsFixedLen+1 && (int(d[0])-tsFixedLen-1)%slot == 0
			return d, ok
		}
	}
	return nil, false
}

// SourceRouteData is RecordRouteData for the first LSRR or SSRR option:
// ok exactly when SourceRouteOption decodes it without error.
func (h *IPv4) SourceRouteData() ([]byte, bool) {
	for _, o := range h.Options {
		if o.Type == OptLSRR || o.Type == OptSSRR {
			return o.Data, slotsWellFormed(o.Data, 1)
		}
	}
	return nil, false
}

// slotsWellFormed checks the layout Record Route and the source routes
// share: a pointer octet, between min and MaxRRSlots whole 4-byte
// slots, and a slot-aligned pointer no lower than the first slot.
func slotsWellFormed(d []byte, min int) bool {
	if len(d) < 1 || (len(d)-1)%4 != 0 {
		return false
	}
	if n := (len(d) - 1) / 4; n < min || n > MaxRRSlots {
		return false
	}
	return d[0] >= rrFirstPointer && (d[0]-rrFirstPointer)%4 == 0
}

// StampRecordRoute is RecordRoute.Record on the data of a well-formed
// Record Route option (see RecordRouteData): it writes addr into the
// slot at the pointer and advances the pointer by 4. It reports false,
// changing nothing, when the option is full or addr is not IPv4.
func StampRecordRoute(data []byte, addr netip.Addr) bool {
	p := int(data[0])
	b, ok := addr4(addr)
	if p > len(data)+2 || !ok { // full: the pointer is past the option
		return false
	}
	copy(data[p-3:], b[:]) // 1-based option offset p is data index p-3
	data[0] += 4
	return true
}

// StampTimestamp is Timestamp.Record on the data of a well-formed
// Internet Timestamp option (see TimestampData). A full option has its
// overflow nibble incremented, saturating at 15; a prespecified slot
// naming another address and a non-IPv4 addr in address mode are left
// alone. It reports whether a slot was completed.
func StampTimestamp(data []byte, addr netip.Addr, millis uint32) bool {
	p := int(data[0])
	flag := TSFlag(data[1] & 0xf)
	if p > len(data)+2 {
		if ov := data[1] >> 4; ov < 15 {
			data[1] = (ov+1)<<4 | byte(flag)
		}
		return false
	}
	slot := data[p-3:]
	switch flag {
	case TSOnly:
		binary.BigEndian.PutUint32(slot, millis)
	case TSAddr:
		b, ok := addr4(addr)
		if !ok {
			return false
		}
		copy(slot, b[:])
		binary.BigEndian.PutUint32(slot[4:], millis)
	case TSPrespecified:
		if netip.AddrFrom4([4]byte(slot[:4])) != addr.Unmap() {
			return false // not our turn; no pointer movement
		}
		binary.BigEndian.PutUint32(slot[4:], millis)
	}
	data[0] += byte(flag.slotSize())
	return true
}

// AdvanceSourceRoute is SourceRoute.Advance on the data of a
// well-formed LSRR/SSRR option (see SourceRouteData): it swaps addr
// into the slot at the pointer, advances the pointer by 4 and returns
// the hop it replaced, the packet's new destination. ok is false,
// changing nothing, when the route is exhausted or addr is not IPv4.
func AdvanceSourceRoute(data []byte, addr netip.Addr) (next netip.Addr, ok bool) {
	p := int(data[0])
	b, ok := addr4(addr)
	if p > len(data)+2 || !ok {
		return netip.Addr{}, false
	}
	slot := data[p-3 : p+1]
	next = netip.AddrFrom4([4]byte(slot))
	copy(slot, b[:])
	data[0] += 4
	return next, true
}

// Rewrite finishes forwarding data, the datagram h was decoded from: it
// writes h.TTL and h.Dst back into the fixed header, recomputes the
// header checksum and returns data trimmed to TotalLength. Option edits
// made with the stampers above are already in place.
//
// The result equals h.AppendTo of the decoded header and payload for
// every header the codec round-trips. The one difference: Decode stops
// at an end-of-list option, and AppendTo pads only to the next 4-byte
// boundary with zeros, so bytes after the end of the option list other
// than that zero padding are dropped by a re-encode but kept here.
func (h *IPv4) Rewrite(data []byte) []byte {
	data[8] = h.TTL
	dst := h.Dst.As4()
	copy(data[16:20], dst[:])
	hdr := data[:int(data[0]&0xf)*4]
	hdr[10], hdr[11] = 0, 0
	binary.BigEndian.PutUint16(hdr[10:], Checksum(hdr))
	return data[:h.TotalLength]
}
