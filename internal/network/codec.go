package network

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// This file exposes the transport's wire codec as standalone functions, so
// tests and fuzz targets can exercise the exact encode/decode path a message
// takes on the wire — fragmentation and reassembly included — without
// opening sockets.

// EncodeMessageBinary serialises a registered payload value into its binary
// protocol frame sequence — one frame in the common case, several when the
// encoded body exceeds frameLimit (pass 0 for the transport default). The
// message id is fixed to 1, making the encoding deterministic for golden
// tests and corpora.
func EncodeMessageBinary(from Addr, v any, frameLimit int) ([]byte, error) {
	name, body, err := encodeBinBody(nil, v)
	if err != nil {
		return nil, err
	}
	return appendBinFrames(nil, 0, 1, from, name, body, frameLimit)
}

// DecodeMessageBinary parses a binary protocol frame sequence (reassembling
// fragments) and reconstructs the payload value of the first complete
// message, exactly as the transport's read loops do. A message carrying a
// remote error is surfaced as a *RemoteError.
func DecodeMessageBinary(data []byte) (from Addr, payload any, err error) {
	r := bytes.NewReader(data)
	asm := newFragAssembler(DefaultMaxMessage)
	for {
		raw, err := readFrame(r)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return "", nil, fmt.Errorf("%w: truncated frame sequence", errBinaryProtocol)
			}
			return "", nil, err
		}
		fr, err := parseBinFrame(raw)
		if err != nil {
			return "", nil, err
		}
		msg, err := asm.add(fr)
		if err != nil {
			return "", nil, err
		}
		if msg == nil {
			continue
		}
		if msg.flags&fErr != 0 {
			return msg.from, nil, &RemoteError{Msg: string(msg.body)}
		}
		payload, err = decodeBinBody(msg.typ, msg.body)
		if err != nil {
			return msg.from, nil, err
		}
		return msg.from, payload, nil
	}
}
