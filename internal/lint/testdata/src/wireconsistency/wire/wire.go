// Package wire is the wireconsistency analyzer fixture: every registered
// message needs a binary codec, a golden vector and a fuzz seed.
package wire

import "pgrid/internal/lint/testdata/src/wireconsistency/network"

// GoodMsg has all three legs: codec, golden vector, fuzz seed.
type GoodMsg struct{ A uint32 }

func (m GoodMsg) AppendWire(b []byte) []byte    { return b }
func (m *GoodMsg) UnmarshalWire(b []byte) error { return nil }

// NoCodecMsg is registered without a binary codec: the transport has no
// other body encoding.
type NoCodecMsg struct{ A uint32 }

// NoGoldenMsg has a codec but no golden vector and no fuzz seed.
type NoGoldenMsg struct{ A uint32 }

func (m NoGoldenMsg) AppendWire(b []byte) []byte    { return b }
func (m *NoGoldenMsg) UnmarshalWire(b []byte) error { return nil }

func init() {
	network.RegisterType("wire.good", GoodMsg{})         // want `pins a vector for StaleMsg, which is not registered`
	network.RegisterType("wire.nocodec", NoCodecMsg{})   // want `has no AppendWire method` `has no UnmarshalWire method`
	network.RegisterType("wire.nogolden", NoGoldenMsg{}) // want `has no golden vector` `has no fuzz corpus seed testdata/fuzz/FuzzBinaryWireDecode/seed-nogoldenmsg`
}
