// Package packet defines the over-the-air frame format of the nRF2401
// ShockBurst link, the CRC the radio computes in hardware, and the typed
// protocol packets (beacons, data, slot requests, grants, acks) the TDMA
// MACs exchange.
package packet

// crcPoly is the CRC-16-CCITT generator polynomial x^16 + x^12 + x^5 + 1.
const crcPoly = 0x1021

// crcTable holds, for each value of the register's top byte, what
// shifting that byte out through the polynomial XORs into the register:
// the bitwise CRC's eight steps for one byte, done once at start-up.
var crcTable = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ crcPoly
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// CRC16 computes the CRC-16-CCITT (polynomial 0x1021, initial value
// 0xFFFF) over data. This is the 16-bit CRC option of the nRF2401's
// embedded packet validation; modelling it with the real polynomial (as
// opposed to TOSSIM's assume-no-errors shortcut) is what lets the
// simulator discard collided and bit-flipped frames the same way the
// hardware does (§4.2 of the paper). It works a byte at a time through
// a 256-entry table and equals the bit-serial register for every input.
//
//hot:path
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
	}
	return crc
}
