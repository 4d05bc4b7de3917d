// Package wire is the wireconsistency analyzer fixture: every registered
// message needs a binary codec, WireSize, a golden vector and a fuzz seed.
package wire

import "pgrid/internal/lint/testdata/src/wireconsistency/network"

// GoodMsg has all four legs: codec, size, golden vector, fuzz seed.
type GoodMsg struct{ A uint32 }

func (m GoodMsg) AppendWire(b []byte) []byte    { return b }
func (m *GoodMsg) UnmarshalWire(b []byte) error { return nil }
func (m GoodMsg) WireSize() int                 { return 4 }

// NoCodecMsg is registered without a binary codec: the transport has no
// other body encoding.
type NoCodecMsg struct{ A uint32 }

func (m NoCodecMsg) WireSize() int { return 4 }

// NoGoldenMsg has a codec but no golden vector and no fuzz seed.
type NoGoldenMsg struct{ A uint32 }

func (m NoGoldenMsg) AppendWire(b []byte) []byte    { return b }
func (m *NoGoldenMsg) UnmarshalWire(b []byte) error { return nil }
func (m NoGoldenMsg) WireSize() int                 { return 4 }

func init() {
	network.RegisterType("wire.good", GoodMsg{})         // want `pins a vector for StaleMsg, which is not registered`
	network.RegisterType("wire.nocodec", NoCodecMsg{})   // want `has no AppendWire method` `has no UnmarshalWire method`
	network.RegisterType("wire.nogolden", NoGoldenMsg{}) // want `has no golden vector` `has no fuzz corpus seed testdata/fuzz/FuzzBinaryWireDecode/seed-nogoldenmsg`
}
