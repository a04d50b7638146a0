package cluster

import (
	"bytes"
	"encoding/gob"

	"semtree/internal/column"
)

// RegisterMessage registers v's type for the gob fallback: a TCP fabric
// frames a payload that is not a Message under kind 0 as one
// self-contained gob stream, type descriptors included, so a connection
// keeps no gob state. It costs a few hundred allocations a message, and
// Stats.Fallback counts the messages that took it. Its one caller is
// the repo benchmark's bare fabric echo (echoMsg in
// benchmark/replay.go); every partition message has its own codec.
func RegisterMessage(v any) { gob.Register(v) }

func appendGob(b column.Appender, v any) (column.Appender, error) {
	buf := bytes.NewBuffer(b)
	err := gob.NewEncoder(buf).Encode(&v)
	return buf.Bytes(), err
}

// readGob decodes what appendGob appended; no bytes are no payload.
func readGob(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, nil
	}
	var v any
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v)
	return v, err
}
