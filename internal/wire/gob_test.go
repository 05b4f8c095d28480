package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// gobEncode and gobDecode are the reference codec the binary codec is held
// to: they serialise the same Envelope through the standard library's
// reflection, independently of the hand-rolled layout. FuzzBinaryEnvelope
// compares the two, and the Gob benchmarks keep a codec-independent noise
// control next to the binary ones.
func gobEncode(env Envelope) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		return nil, fmt.Errorf("wire: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

func gobDecode(raw []byte) (Envelope, error) {
	var env Envelope
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		return Envelope{}, fmt.Errorf("wire: gob decode: %w", err)
	}
	return env, nil
}
