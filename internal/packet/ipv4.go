package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IPv4 header flag bits (the three-bit Flags field, here kept in the low
// bits of a byte).
const (
	// FlagMoreFragments (MF) marks all fragments but the last.
	FlagMoreFragments uint8 = 1 << 0
	// FlagDontFragment (DF) forbids fragmentation.
	FlagDontFragment uint8 = 1 << 1
)

// ipv4FixedLen is the length of an IPv4 header without options.
const ipv4FixedLen = 20

// MaxIPv4HeaderLen is the largest possible IPv4 header (IHL = 15).
const MaxIPv4HeaderLen = ipv4FixedLen + MaxOptionsLen

// IPv4 is a decoded IPv4 header. TotalLength, IHL, and Checksum are
// computed on encode; their struct values reflect the last decode.
type IPv4 struct {
	TOS        uint8
	ID         uint16
	Flags      uint8 // low three bits: reserved, DF, MF
	FragOffset uint16
	TTL        uint8
	Protocol   Protocol
	Src, Dst   netip.Addr
	Options    []Option

	// TotalLength is the datagram length from the last decoded header;
	// encoders derive it from the payload instead.
	TotalLength uint16
	// Checksum is the header checksum from the last decoded header.
	Checksum uint16
}

// HeaderLen returns the encoded header length in bytes: 20 plus the
// padded options area.
func (h *IPv4) HeaderLen() int {
	optLen := 0
	for _, o := range h.Options {
		optLen += o.wireLen()
	}
	optLen = (optLen + 3) &^ 3
	return ipv4FixedLen + optLen
}

// AppendTo encodes the header followed by payload onto b, computing IHL,
// TotalLength, and the header checksum. It returns the extended buffer.
func (h *IPv4) AppendTo(b []byte, payload []byte) ([]byte, error) {
	b, err := h.AppendHeader(b, len(payload))
	if err != nil {
		return nil, err
	}
	return append(b, payload...), nil
}

// AppendHeader encodes just the header onto b for a payload of
// payloadLen bytes that the caller appends next, so a transport layer
// can be encoded straight into the same buffer (ICMP.AppendTo).
func (h *IPv4) AppendHeader(b []byte, payloadLen int) ([]byte, error) {
	src, ok := addr4(h.Src)
	if !ok {
		return nil, fmt.Errorf("%w: source %v", ErrNotIPv4, h.Src)
	}
	dst, ok := addr4(h.Dst)
	if !ok {
		return nil, fmt.Errorf("%w: destination %v", ErrNotIPv4, h.Dst)
	}
	start := len(b)
	b = append(b,
		0, // version+IHL, patched below
		h.TOS,
		0, 0, // total length, patched below
	)
	b = binary.BigEndian.AppendUint16(b, h.ID)
	b = binary.BigEndian.AppendUint16(b, uint16(h.Flags&0x7)<<13|h.FragOffset&0x1fff)
	b = append(b, h.TTL, byte(h.Protocol), 0, 0) // checksum patched below
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	var err error
	b, err = appendOptions(b, h.Options)
	if err != nil {
		return nil, err
	}
	hdrLen := len(b) - start
	if hdrLen%4 != 0 || hdrLen > MaxIPv4HeaderLen {
		return nil, fmt.Errorf("%w: header length %d", ErrBadHeader, hdrLen)
	}
	total := hdrLen + payloadLen
	if total > 0xffff {
		return nil, fmt.Errorf("%w: total length %d", ErrBadHeader, total)
	}
	b[start] = 4<<4 | byte(hdrLen/4)
	binary.BigEndian.PutUint16(b[start+2:], uint16(total))
	cs := Checksum(b[start : start+hdrLen])
	binary.BigEndian.PutUint16(b[start+10:], cs)
	return b, nil
}

// Marshal encodes the header and payload into a fresh buffer.
func (h *IPv4) Marshal(payload []byte) ([]byte, error) {
	return h.AppendTo(make([]byte, 0, h.HeaderLen()+len(payload)), payload)
}

// Decode parses an IPv4 datagram into the receiver and returns the payload
// (the bytes after the header, trimmed to TotalLength). The receiver's
// Options slice is reused when capacity allows; option data aliases the
// input. The header checksum is verified.
func (h *IPv4) Decode(data []byte) (payload []byte, err error) {
	if len(data) < ipv4FixedLen {
		return nil, fmt.Errorf("%w: %d bytes of IPv4 header", ErrTruncated, len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return nil, fmt.Errorf("%w: version %d", ErrNotIPv4, v)
	}
	hdrLen := int(data[0]&0xf) * 4
	if hdrLen < ipv4FixedLen {
		return nil, fmt.Errorf("%w: IHL %d", ErrBadHeader, hdrLen/4)
	}
	if len(data) < hdrLen {
		return nil, fmt.Errorf("%w: header claims %d bytes, have %d", ErrTruncated, hdrLen, len(data))
	}
	if Checksum(data[:hdrLen]) != 0 {
		return nil, fmt.Errorf("%w: IPv4 header", ErrChecksum)
	}
	h.TOS = data[1]
	h.TotalLength = binary.BigEndian.Uint16(data[2:])
	h.ID = binary.BigEndian.Uint16(data[4:])
	ff := binary.BigEndian.Uint16(data[6:])
	h.Flags = uint8(ff >> 13)
	h.FragOffset = ff & 0x1fff
	h.TTL = data[8]
	h.Protocol = Protocol(data[9])
	h.Checksum = binary.BigEndian.Uint16(data[10:])
	h.Src = netip.AddrFrom4([4]byte(data[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	if hdrLen > ipv4FixedLen {
		h.Options, err = parseOptions(h.Options[:0], data[ipv4FixedLen:hdrLen])
		if err != nil {
			return nil, err
		}
	} else {
		h.Options = h.Options[:0]
	}
	total := int(h.TotalLength)
	if total < hdrLen {
		return nil, fmt.Errorf("%w: total length %d < header length %d", ErrBadHeader, total, hdrLen)
	}
	if total > len(data) {
		return nil, fmt.Errorf("%w: total length %d, have %d", ErrTruncated, total, len(data))
	}
	return data[hdrLen:total], nil
}

// DecodeHeaderOnly parses and verifies just the IPv4 header, returning
// whatever bytes follow it without checking them against TotalLength.
// ICMP error messages quote a truncated copy of the offending datagram,
// so decoding a quote must tolerate a short buffer.
func (h *IPv4) DecodeHeaderOnly(data []byte) (rest []byte, err error) {
	if len(data) < ipv4FixedLen {
		return nil, fmt.Errorf("%w: %d bytes of IPv4 header", ErrTruncated, len(data))
	}
	hdrLen := int(data[0]&0xf) * 4
	if len(data) < hdrLen {
		return nil, fmt.Errorf("%w: header claims %d bytes, have %d", ErrTruncated, hdrLen, len(data))
	}
	// Temporarily zero-extend the view so Decode's TotalLength check
	// cannot fail, then restore the true remainder.
	saveTotal := binary.BigEndian.Uint16(data[2:])
	if int(saveTotal) > len(data) {
		// Clone so we can patch TotalLength (and re-checksum) without
		// touching the caller's buffer.
		patched := make([]byte, len(data))
		copy(patched, data)
		binary.BigEndian.PutUint16(patched[2:], uint16(len(data)))
		binary.BigEndian.PutUint16(patched[10:], 0)
		binary.BigEndian.PutUint16(patched[10:], Checksum(patched[:hdrLen]))
		rest, err = h.Decode(patched)
		if err != nil {
			return nil, err
		}
		h.TotalLength = saveTotal // expose the original claimed length
		h.Checksum = binary.BigEndian.Uint16(data[10:])
		return rest, nil
	}
	return h.Decode(data)
}

// RecordRouteOption finds the header's Record Route option, if any, and
// decodes it into rr. It reports whether the option was present.
func (h *IPv4) RecordRouteOption(rr *RecordRoute) (bool, error) {
	return rr.FindRecordRoute(h.Options)
}

// SetRecordRoute replaces any existing Record Route option in the header
// with the serialization of rr (or appends one if absent).
func (h *IPv4) SetRecordRoute(rr *RecordRoute) error {
	opt, err := rr.Option()
	if err != nil {
		return err
	}
	for i := range h.Options {
		if h.Options[i].Type == OptRecordRoute {
			h.Options[i] = opt
			return nil
		}
	}
	h.Options = append(h.Options, opt)
	return nil
}

// String renders a compact human-readable summary for logs and tests.
func (h *IPv4) String() string {
	return fmt.Sprintf("IPv4 %v > %v ttl=%d proto=%v id=%d opts=%d",
		h.Src, h.Dst, h.TTL, h.Protocol, h.ID, len(h.Options))
}
