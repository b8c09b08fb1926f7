package kb

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pka/internal/dataset"
	"pka/internal/maxent"
	"pka/internal/snapshot"
)

// kbJSON is the persisted knowledge base: schema plus fitted model.
type kbJSON struct {
	// Version guards the on-disk format.
	Version int             `json:"version"`
	Attrs   []attrJSON      `json:"attributes"`
	Model   json.RawMessage `json:"model"`
}

type attrJSON struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// formatVersion is bumped on incompatible changes to the wire format.
const formatVersion = 1

// ErrInvalidFormat marks input that is not a knowledge base in the
// expected format — truncated files, non-JSON bytes, a corrupt model
// section. Callers branch on it with errors.Is; the wrapped message
// carries the specific decode failure. Binary snapshot loads surface the
// snapshot package's own named errors (ErrBadMagic, ErrChecksum, ...)
// instead, since those say more than "invalid".
var ErrInvalidFormat = errors.New("kb: input is not a valid knowledge base")

// Save writes the knowledge base as JSON — the interchange format: stable,
// diffable, readable by anything. For fast process restarts use
// SaveBinary, which additionally carries the compiled engine state.
func (k *KnowledgeBase) Save(w io.Writer) error {
	modelData, err := json.Marshal(k.model)
	if err != nil {
		return fmt.Errorf("kb: encoding model: %w", err)
	}
	doc := kbJSON{Version: formatVersion, Model: modelData}
	for i := 0; i < k.schema.R(); i++ {
		a := k.schema.Attr(i)
		doc.Attrs = append(doc.Attrs, attrJSON{Name: a.Name, Values: a.Values})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("kb: writing knowledge base: %w", err)
	}
	return nil
}

// Load reads a knowledge base saved by Save, validating schema/model
// agreement. Malformed input — non-JSON bytes, a truncated document, a
// corrupt schema or model — fails with an error wrapping ErrInvalidFormat.
func Load(r io.Reader) (*KnowledgeBase, error) {
	var doc kbJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", ErrInvalidFormat, err)
	}
	if doc.Version != formatVersion {
		return nil, fmt.Errorf("%w: unsupported format version %d (want %d)",
			ErrInvalidFormat, doc.Version, formatVersion)
	}
	attrs := make([]dataset.Attribute, len(doc.Attrs))
	for i, a := range doc.Attrs {
		attrs[i] = dataset.Attribute{Name: a.Name, Values: a.Values}
	}
	schema, err := dataset.NewSchema(attrs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidFormat, err)
	}
	var model maxent.Model
	if err := json.Unmarshal(doc.Model, &model); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidFormat, err)
	}
	k, err := New(schema, &model)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidFormat, err)
	}
	return k, nil
}

// SaveBinary writes the knowledge base as a PKAS binary snapshot: schema,
// constraints, and the already-solved coefficients with their compiled
// per-block state, so LoadBinary restores to a queryable engine without
// refitting. Counts do not travel through this path — save from the public
// Model.SaveSnapshot to include them.
func (k *KnowledgeBase) SaveBinary(w io.Writer) error {
	return snapshot.Write(w, &snapshot.Snapshot{Schema: k.schema, Model: k.model})
}

// LoadBinary reads a PKAS binary snapshot into a queryable knowledge base.
// The model's compiled engine is reconstructed directly from the stored
// coefficients and block sums — no solve — so load-to-first-query is pure
// deserialization. Bad magic, an unsupported version, or a checksum
// mismatch fail with the snapshot package's named errors.
func LoadBinary(r io.Reader) (*KnowledgeBase, error) {
	s, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return New(s.Schema, s.Model)
}

// LoadAny reads a knowledge base in either format, sniffing the PKAS magic
// bytes to dispatch: binary snapshots go through LoadBinary, anything else
// through the JSON Load.
func LoadAny(r io.Reader) (*KnowledgeBase, error) {
	br := bufio.NewReader(r)
	prefix, err := br.Peek(len(snapshot.Magic))
	if err == nil && snapshot.IsSnapshot(prefix) {
		return LoadBinary(br)
	}
	// Too short for the magic or not a snapshot: let the JSON path produce
	// the diagnostic (wrapping ErrInvalidFormat).
	return Load(br)
}
