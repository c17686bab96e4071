// Package snapshot persists built networks: everything workload.Build
// produces — each layer's prune-derived compression structure as its
// two contiguous little-endian group planes, activation-source
// parameters, and layer stats — in one versioned binary artifact that
// loads in a single read. It is the serializable representation behind
// sre.(*Network).WriteTo and sre.OpenSnapshot, and the build cache
// behind sre.WithSnapshotDir.
//
// File layout (all integers little-endian):
//
//	[ 0, 8)  magic "SRESNAP\x00"
//	[ 8,12)  u32 format version (currently 4)
//	[12,16)  u32 meta length in bytes
//	[16,24)  u64 payload length in bytes
//	[24,32)  u64 CRC-64/ECMA of the meta JSON
//	[32,40)  u64 CRC-64/ECMA of the payload
//	[40,72)  sha-256 content hash of the build inputs (Key.Hash)
//	[72,  )  meta JSON, then payload
//
// The content hash covers the format version and every build input
// (network spec, prune mode, quantization, geometry, seed) and nothing
// derived, so it is computable before building — that is what lets a
// snapshot directory be consulted by hash prior to paying for a build,
// and shared across replicas and CI. Everything written is a function
// of the key alone, so equal keys give byte-identical files. The
// payload is the concatenation, layer by layer, of the structure word
// plane ([]u64) and the weight-slice group plane ([]u64, what the WSS
// modes plan over), each exactly the meta's PlaneWords long, so
// decoding is pure slicing and the group bitsets adopt sub-slices of
// the decoded planes without copying. No plan set is persisted: a
// loaded network holds exactly the state of a freshly built one and
// derives every plan set from its planes on first use, as a built one
// does.
//
// Decoding fails loudly: a bad magic, an unsupported version, a length
// or checksum that does not line up, a meta whose recomputed content
// hash differs from the header's, or section sizes the payload cannot
// hold all return named errors (ErrBadMagic, ErrVersion, ErrCorrupt,
// ErrHashMismatch) — never a panic, a size-driven allocation, or a
// silently rebuilt or partially loaded network.
package snapshot

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"sre/internal/compress"
	"sre/internal/core"
	"sre/internal/mapping"
	"sre/internal/parallel"
	"sre/internal/quant"
	"sre/internal/workload"

	"crypto/sha256"
)

// FormatVersion is the current snapshot format version. Bump it on any
// incompatible layout change; it participates in the content hash, so
// old snapshots are never matched by hash, and OpenSnapshot rejects
// them with ErrVersion rather than misreading them. Version 2 added
// the per-layer weight-slice plane section and Spec.SliceCap; version 3
// dropped the window-code plane section and the writer-chosen plan
// index width, so a file's bytes depend only on its key; version 4
// dropped the ORC plan-set section and made the slice plane mandatory,
// so a layer's payload is its two group planes and nothing else.
const FormatVersion = 4

const (
	magic      = "SRESNAP\x00"
	headerSize = 72

	// maxMetaBytes bounds the meta section a header may claim, keeping
	// hostile or corrupt headers from driving huge allocations.
	maxMetaBytes = 64 << 20
)

// Named decode failures, matchable with errors.Is.
var (
	ErrBadMagic     = errors.New("snapshot: not a snapshot file (bad magic)")
	ErrVersion      = errors.New("snapshot: unsupported format version")
	ErrCorrupt      = errors.New("snapshot: corrupt snapshot")
	ErrHashMismatch = errors.New("snapshot: content hash mismatch")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Key is the complete set of build inputs one artifact stands for. Two
// builds with equal Keys produce bit-identical networks (builds are
// deterministic), which is what makes the content hash a safe cache
// key.
type Key struct {
	Spec  workload.Spec
	Prune workload.PruneMode
	Quant quant.Params
	Geom  mapping.Geometry
	Seed  uint64
}

// Hash returns the sha-256 content hash of the key: a canonical binary
// serialization of the format version and every build input, stable
// across runs, platforms, and field ordering.
func (k Key) Hash() [32]byte {
	h := sha256.New()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wi := func(v int) { wu(uint64(int64(v))) }
	wf := func(v float64) { wu(math.Float64bits(v)) }
	ws := func(s string) {
		wi(len(s))
		io.WriteString(h, s)
	}
	wu(FormatVersion)
	ws(k.Spec.Name)
	ws(k.Spec.Display)
	ws(k.Spec.Topology)
	wi(len(k.Spec.Input))
	for _, d := range k.Spec.Input {
		wi(d)
	}
	wf(k.Spec.WeightSparsity)
	wf(k.Spec.ActSparsity)
	wf(k.Spec.ConvSparsity)
	wf(k.Spec.FCSparsity)
	wf(k.Spec.RowFrac)
	wf(k.Spec.ColFrac)
	wf(k.Spec.SegFrac)
	wf(k.Spec.TileSegFrac)
	wf(k.Spec.ActOctaves)
	wf(k.Spec.ActChanOctaves)
	wi(k.Spec.IndexBits)
	wf(k.Spec.GSLConv)
	wf(k.Spec.GSLFC)
	if k.Spec.Large {
		wi(1)
	} else {
		wi(0)
	}
	wi(k.Spec.SliceCap)
	wi(int(k.Prune))
	wi(k.Quant.WBits)
	wi(k.Quant.ABits)
	wi(k.Quant.CellBits)
	wi(k.Quant.DACBits)
	wi(k.Geom.XbarRows)
	wi(k.Geom.XbarCols)
	wi(k.Geom.SWL)
	wi(k.Geom.SBL)
	wu(k.Seed)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// HashHex returns the content hash as lowercase hex.
func (k Key) HashHex() string {
	h := k.Hash()
	return hex.EncodeToString(h[:])
}

// FileName returns the canonical file name a snapshot directory stores
// this key under.
func (k Key) FileName() string { return k.HashHex() + ".sresnap" }

// fileMeta is the JSON meta section.
type fileMeta struct {
	FormatVersion int
	Key           keyMeta
	Layers        []layerMeta
}

type keyMeta struct {
	Spec  workload.Spec
	Prune int
	Quant quant.Params
	Geom  mapping.Geometry
	Seed  uint64
}

func (m keyMeta) key() Key {
	return Key{Spec: m.Spec, Prune: workload.PruneMode(m.Prune),
		Quant: m.Quant, Geom: m.Geom, Seed: m.Seed}
}

// layerMeta describes one layer's identity and payload sections.
type layerMeta struct {
	Name          string
	Rows, Cols    int // logical weight-matrix dims (the layout rebuilds from these)
	OutputBits    int64
	ParallelGroup string
	NonZeroCells  int64
	Stats         workload.LayerStats
	Acts          actsMeta
	PlaneWords    int // length of each of the layer's two group planes (u64 words)
}

// actsMeta mirrors workload.SyntheticActs field for field.
type actsMeta struct {
	Rows, NWindows                 int
	Sparsity, Octaves, ChanOctaves float64
	RowsPerChan, ABits             int
	Seed                           uint64
}

// metaOf is the layerMeta and actsMeta Write records for layer l,
// whose logical weight matrix is rows×cols, everything but the payload
// fields.
func metaOf(rows, cols int, l core.Layer, sa *workload.SyntheticActs) layerMeta {
	return layerMeta{
		Name:          l.Name,
		Rows:          rows,
		Cols:          cols,
		OutputBits:    l.OutputBits,
		ParallelGroup: l.ParallelGroup,
		Acts: actsMeta{Rows: sa.Rows, NWindows: sa.NWindows,
			Sparsity: sa.Sparsity, Octaves: sa.Octaves, ChanOctaves: sa.ChanOctaves,
			RowsPerChan: sa.RowsPerChan, ABits: sa.ABits, Seed: sa.Seed},
	}
}

// checkShell reports the first field of lm that differs from what the
// key derives for the layer, its shell: everything but the structure's
// payload and the stats is a function of the key and the topology.
func checkShell(lm *layerMeta, sh workload.Shell) error {
	want := metaOf(sh.Rows, sh.Cols, sh.Layer, sh.Layer.Acts.(*workload.SyntheticActs))
	got := *lm
	got.NonZeroCells, got.Stats, got.PlaneWords = 0, workload.LayerStats{}, 0
	if got == want {
		return nil
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"name", got.Name, want.Name},
		{"dims", [2]int{got.Rows, got.Cols}, [2]int{want.Rows, want.Cols}},
		{"output bits", got.OutputBits, want.OutputBits},
		{"parallel group", got.ParallelGroup, want.ParallelGroup},
		{"windows", got.Acts.NWindows, want.Acts.NWindows},
		{"rows per channel", got.Acts.RowsPerChan, want.Acts.RowsPerChan},
		{"activation seed", got.Acts.Seed, want.Acts.Seed},
	} {
		if f.got != f.want {
			return fmt.Errorf("%s %v, key derives %v", f.name, f.got, f.want)
		}
	}
	return fmt.Errorf("activations %+v, key derives %+v", got.Acts, want.Acts)
}

// Write serializes the built network b (built from inputs k) to w and
// returns the byte count written. Only networks whose activation
// sources are workload.SyntheticActs serialize; anything else returns
// an error naming the layer.
func Write(w io.Writer, k Key, b *workload.Built) (int64, error) {
	meta, payload, err := encodeBody(k, b)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, part := range [][]byte{sealHeader(k.Hash(), meta, payload), meta, payload} {
		m, err := w.Write(part)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// sealHeader returns the fixed-size prologue of a file whose key hashes
// to hash: the lengths and checksums of meta and payload.
func sealHeader(hash [32]byte, meta, payload []byte) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[8:], FormatVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(meta)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[24:], crc64.Checksum(meta, crcTable))
	binary.LittleEndian.PutUint64(hdr[32:], crc64.Checksum(payload, crcTable))
	copy(hdr[40:], hash[:])
	return hdr
}

func encodeBody(k Key, b *workload.Built) (meta, payload []byte, err error) {
	fm := fileMeta{
		FormatVersion: FormatVersion,
		Key: keyMeta{Spec: k.Spec, Prune: int(k.Prune), Quant: k.Quant,
			Geom: k.Geom, Seed: k.Seed},
	}
	if len(b.Stats) != len(b.Layers) {
		return nil, nil, fmt.Errorf("snapshot: %d layers but %d stats entries", len(b.Layers), len(b.Stats))
	}
	for i := range b.Layers {
		l := &b.Layers[i]
		sa, ok := l.Acts.(*workload.SyntheticActs)
		if !ok {
			return nil, nil, fmt.Errorf("snapshot: layer %s: activation source %T is not serializable", l.Name, l.Acts)
		}
		st := l.Struct
		lm := metaOf(st.Layout.Rows, st.Layout.LogicalCols, *l, sa)
		lm.NonZeroCells, lm.Stats, lm.PlaneWords = st.NonZeroCells(), b.Stats[i], st.PlaneWords()
		// Structure word plane, then the weight-slice group plane, both
		// contiguous little-endian.
		for _, wd := range st.AppendSlicePlanes(st.AppendPlanes(make([]uint64, 0, 2*lm.PlaneWords))) {
			payload = binary.LittleEndian.AppendUint64(payload, wd)
		}
		fm.Layers = append(fm.Layers, lm)
	}
	meta, err = json.Marshal(fm)
	if err != nil {
		return nil, nil, err
	}
	return meta, payload, nil
}

// header is the decoded fixed-size prologue.
type header struct {
	version    uint32
	metaLen    uint32
	payloadLen uint64
	metaCRC    uint64
	payloadCRC uint64
	hash       [32]byte
}

// decodeHeader validates the fixed-size prologue. It is the fuzzed
// entry point: any input must yield a named error or a structurally
// sane header, never a panic.
func decodeHeader(data []byte) (header, error) {
	var h header
	if len(data) < headerSize {
		return h, fmt.Errorf("%w: %d-byte file is shorter than the %d-byte header", ErrCorrupt, len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return h, ErrBadMagic
	}
	h.version = binary.LittleEndian.Uint32(data[8:])
	if h.version != FormatVersion {
		return h, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, h.version, FormatVersion)
	}
	h.metaLen = binary.LittleEndian.Uint32(data[12:])
	h.payloadLen = binary.LittleEndian.Uint64(data[16:])
	h.metaCRC = binary.LittleEndian.Uint64(data[24:])
	h.payloadCRC = binary.LittleEndian.Uint64(data[32:])
	copy(h.hash[:], data[40:72])
	if h.metaLen > maxMetaBytes {
		return h, fmt.Errorf("%w: meta length %d exceeds the %d-byte bound", ErrCorrupt, h.metaLen, maxMetaBytes)
	}
	want := uint64(headerSize) + uint64(h.metaLen) + h.payloadLen
	if uint64(len(data)) != want {
		return h, fmt.Errorf("%w: file is %d bytes, header promises %d", ErrCorrupt, len(data), want)
	}
	return h, nil
}

// Decode reconstructs a built network from a complete snapshot image.
// Each layer's structure bitsets adopt sub-slices of its two decoded
// planes, so loading is a single read plus one word-conversion pass;
// the returned Built does not reference data.
func Decode(data []byte) (Key, *workload.Built, error) {
	var zero Key
	h, err := decodeHeader(data)
	if err != nil {
		return zero, nil, err
	}
	meta := data[headerSize : headerSize+int(h.metaLen)]
	payload := data[headerSize+int(h.metaLen):]
	if crc64.Checksum(meta, crcTable) != h.metaCRC {
		return zero, nil, fmt.Errorf("%w: meta checksum mismatch", ErrCorrupt)
	}
	if crc64.Checksum(payload, crcTable) != h.payloadCRC {
		return zero, nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	var fm fileMeta
	if err := json.Unmarshal(meta, &fm); err != nil {
		return zero, nil, fmt.Errorf("%w: meta does not parse: %v", ErrCorrupt, err)
	}
	if fm.FormatVersion != FormatVersion {
		return zero, nil, fmt.Errorf("%w: meta says version %d", ErrVersion, fm.FormatVersion)
	}
	k := fm.Key.key()
	if k.Hash() != h.hash {
		return zero, nil, fmt.Errorf("%w: header hash does not match the build inputs in the meta", ErrHashMismatch)
	}
	if err := k.Geom.Validate(); err != nil {
		return zero, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := k.Quant.Validate(); err != nil {
		return zero, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// Everything of a layer but its planes, cell count and stats is a
	// function of the key, so it is derived here, by the weightless walk
	// Build takes its shapes from, and the file's copy must match it.
	shells, err := k.Spec.Shells(k.Quant.ABits, k.Seed)
	if err != nil {
		return zero, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(fm.Layers) != len(shells) {
		return zero, nil, fmt.Errorf("%w: %d layers, key derives %d", ErrCorrupt, len(fm.Layers), len(shells))
	}
	b := &workload.Built{Spec: k.Spec}
	off := 0
	// words decodes the layer's next n-word section. The count comes
	// from the meta, so it is checked against the payload bytes left
	// before anything is sized from it.
	words := func(lm *layerMeta, n int) ([]uint64, error) {
		if n < 0 || n > (len(payload)-off)/8 {
			return nil, fmt.Errorf("%w: payload too short for layer %s", ErrCorrupt, lm.Name)
		}
		out := make([]uint64, n)
		for j := range out {
			out[j] = binary.LittleEndian.Uint64(payload[off:])
			off += 8
		}
		return out, nil
	}
	for i := range fm.Layers {
		lm, sh := &fm.Layers[i], shells[i]
		if err := checkShell(lm, sh); err != nil {
			return zero, nil, fmt.Errorf("%w: layer %s: %v", ErrCorrupt, sh.Layer.Name, err)
		}
		planes, err := words(lm, lm.PlaneWords)
		if err != nil {
			return zero, nil, err
		}
		slicePlanes, err := words(lm, lm.PlaneWords)
		if err != nil {
			return zero, nil, err
		}
		sh.Layer.Struct, err = compress.NewStructureFromPlanes(sh.Rows, sh.Cols, k.Quant, k.Geom, planes, slicePlanes, lm.NonZeroCells)
		if err != nil {
			return zero, nil, fmt.Errorf("%w: layer %s: %v", ErrCorrupt, sh.Layer.Name, err)
		}
		b.Layers = append(b.Layers, sh.Layer)
		b.Stats = append(b.Stats, lm.Stats)
	}
	if off != len(payload) {
		return zero, nil, fmt.Errorf("%w: payload has %d trailing bytes", ErrCorrupt, len(payload)-off)
	}
	return k, b, nil
}

// ReadFile loads a snapshot in one read; see Decode.
func ReadFile(path string) (Key, *workload.Built, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Key{}, nil, err
	}
	k, b, err := Decode(data)
	if err != nil {
		return Key{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	return k, b, nil
}

// WriteFile writes the snapshot atomically: a temp file in the target
// directory, fsync-free rename into place, so concurrent readers and
// racing writers only ever observe complete snapshots.
func WriteFile(path string, k Key, b *workload.Built) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".sresnap-*")
	if err != nil {
		return err
	}
	_, werr := Write(tmp, k, b)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// LoadOrBuild consults dir for the key's snapshot: on a hit it loads
// and returns (built, true); on a clean miss it builds, persists the
// result for the next caller, and returns (built, false). A snapshot
// that exists but fails to decode — corruption, version skew, hash
// mismatch — is a loud error, never a silent rebuild: a shared
// snapshot directory that has gone bad should be noticed, not
// papered over.
func LoadOrBuild(dir string, k Key, pool *parallel.Pool) (*workload.Built, bool, error) {
	path := filepath.Join(dir, k.FileName())
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		kk, b, derr := Decode(data)
		if derr != nil {
			return nil, false, fmt.Errorf("%s: %w", path, derr)
		}
		if kk.Hash() != k.Hash() {
			return nil, false, fmt.Errorf("%s: %w: file holds a different build's artifact", path, ErrHashMismatch)
		}
		return b, true, nil
	case errors.Is(err, fs.ErrNotExist):
		// Clean miss: build and persist below.
	default:
		return nil, false, err
	}
	b, err := k.Spec.Build(k.Prune, k.Quant, k.Geom, k.Seed, pool)
	if err != nil {
		return nil, false, err
	}
	if err := WriteFile(path, k, b); err != nil {
		return nil, false, fmt.Errorf("snapshot: persisting %s: %w", path, err)
	}
	return b, false, nil
}
